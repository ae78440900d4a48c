//! The primary-side PRINS engine.

use std::sync::Arc;

use parking_lot::Mutex;

use prins_block::{BlockDevice, BlockError, Geometry, Lba, Result};
use prins_buf::BufPool;
use prins_net::{Clock, Transport};
use prins_repl::{ReplicationMode, Replicator};

use crate::obs::PipeObs;
use crate::pipeline::{Pipeline, PipelineConfig, PipelineTuning, Shared};
use crate::{EngineStats, LaneStats};

/// The PRINS-engine: a [`BlockDevice`] wrapper that replicates every
/// write through a staged background pipeline.
///
/// Construct with [`EngineBuilder`](crate::EngineBuilder). The write
/// path performs the paper's forward step — capture `A_old`, write
/// `A_new` locally, admit `(lba, A_old, A_new)` to the replication
/// pipeline — and returns; parity encoding and transmission happen off
/// the application's critical path, spread over an encode pool and one
/// sender thread per replica (see [`crate::pipeline`] for the stage
/// diagram and its ordering/coalescing invariants).
///
/// [`flush`](BlockDevice::flush) acts as a replication barrier: it
/// returns once every admitted write has been acknowledged by every
/// replica, surfacing any replication error that occurred.
pub struct PrinsEngine {
    device: Arc<dyn BlockDevice>,
    shared: Arc<Shared>,
    pipeline: Pipeline,
    clock: Arc<dyn Clock>,
    /// Slab pool for block images, encoded payloads and wire frames;
    /// shared with every pipeline stage so buffers recycle across the
    /// whole hot path.
    pool: BufPool,
    /// Per-LBA stripe locks: the old-image capture, the local write and
    /// the pipeline admission must be atomic per block, or two
    /// concurrent writers to one LBA would admit parities computed
    /// against the same old image — and the replica's XOR chain would
    /// diverge.
    write_stripes: Vec<Mutex<()>>,
    /// Live pipeline knobs, shared with every stage that reads them.
    tuning: Arc<PipelineTuning>,
    /// The adaptive policy engine, when built with
    /// [`EngineBuilder::adaptive`](crate::EngineBuilder::adaptive).
    pub(crate) adaptive: Option<Arc<prins_policy::AdaptiveReplicator>>,
}

impl PrinsEngine {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn start(
        device: Arc<dyn BlockDevice>,
        mode: ReplicationMode,
        replicator: Option<Arc<dyn Replicator>>,
        transports: Vec<Box<dyn Transport>>,
        config: PipelineConfig,
        clock: Arc<dyn Clock>,
        obs: PipeObs,
        trace: Option<Arc<prins_obs::TraceSink>>,
    ) -> Self {
        let shared = Arc::new(Shared {
            last_error: Mutex::new(None),
            obs,
            trace,
        });
        // A custom replicator (e.g. prins-policy's adaptive one)
        // overrides the static strategy the mode names.
        let replicator: Arc<dyn Replicator> =
            replicator.unwrap_or_else(|| Arc::from(mode.replicator()));
        let pool =
            BufPool::for_block_size(device.geometry().block_size().bytes(), config.batch_frames);
        let tuning = PipelineTuning::from_config(&config);
        let pipeline = Pipeline::start(
            replicator,
            transports,
            Arc::clone(&shared),
            &config,
            Arc::clone(&clock),
            pool.clone(),
            Arc::clone(&tuning),
        );
        shared.obs.publish_pool_gauges(pool.clone());
        Self {
            device,
            shared,
            pipeline,
            clock,
            pool,
            write_stripes: (0..64).map(|_| Mutex::new(())).collect(),
            tuning,
            adaptive: None,
        }
    }

    /// The live pipeline knobs (batching depth, coalescing). Safe to
    /// retune from any thread while the engine runs; the adaptive
    /// policy's phase hook points here.
    pub fn tuning(&self) -> &Arc<PipelineTuning> {
        &self.tuning
    }

    /// The adaptive policy engine (decision counters, counterfactuals,
    /// current workload phase), when built with
    /// [`EngineBuilder::adaptive`](crate::EngineBuilder::adaptive).
    pub fn adaptive(&self) -> Option<&Arc<prins_policy::AdaptiveReplicator>> {
        self.adaptive.as_ref()
    }

    /// The metrics registry the engine records into: the one attached
    /// via [`observe`](crate::EngineBuilder::observe), else the
    /// engine's private one.
    pub fn registry(&self) -> &Arc<prins_obs::Registry> {
        &self.shared.obs.registry
    }

    /// The per-write trace sink, if tracing was enabled via
    /// [`flight_recorder`](crate::EngineBuilder::flight_recorder).
    /// Share it with cluster layers (`attach_tracer`) for end-to-end
    /// traces across the whole stack.
    pub fn trace_sink(&self) -> Option<&Arc<prins_obs::TraceSink>> {
        self.shared.trace.as_ref()
    }

    /// Drives one pipeline round when the engine was built with
    /// [`manual_stepping`](crate::EngineBuilder::manual_stepping):
    /// encodes every admitted write and lets each sender lane transmit
    /// and collect acknowledgements, all on the calling thread.
    ///
    /// Returns whether any work was performed; always `false` on a
    /// threaded engine.
    pub fn step(&self) -> bool {
        self.pipeline.step()
    }

    /// Snapshot of the engine's counters, read from its registry.
    ///
    /// `writes_replicated` is the number of writes acknowledged by
    /// *every* replica; `replicated_payload_bytes` counts each
    /// successful transmission once per lane (a write sent to three
    /// replicas contributes three payloads).
    pub fn stats(&self) -> EngineStats {
        self.shared.obs.stats()
    }

    /// Per-replica sender-lane counters, in replica order.
    pub fn lane_stats(&self) -> Vec<LaneStats> {
        self.shared.obs.lane_stats()
    }

    /// Per-lane `(lba, seq)` send logs, in send order.
    ///
    /// Empty unless the engine was built with
    /// [`trace_sends`](crate::EngineBuilder::trace_sends); intended for
    /// ordering tests — the transports deliver in send order, so each
    /// log is exactly the replica's arrival order.
    pub fn send_logs(&self) -> Vec<Vec<(Lba, u64)>> {
        self.pipeline.lanes().iter().map(|l| l.send_log()).collect()
    }

    /// The wrapped local device.
    pub fn device(&self) -> &Arc<dyn BlockDevice> {
        &self.device
    }

    /// Waits until every admitted write is replicated and acknowledged.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::DeviceFailed`] if any replication error
    /// occurred since the last check (the error is consumed).
    pub fn replication_barrier(&self) -> Result<()> {
        self.pipeline.barrier();
        if let Some(err) = self.shared.last_error.lock().take() {
            return Err(BlockError::DeviceFailed {
                device: format!("replication failed: {err}"),
            });
        }
        Ok(())
    }

    /// Stops the engine: drains the pipeline, joins all worker threads
    /// and reports any outstanding replication error.
    ///
    /// # Errors
    ///
    /// Returns the first replication error recorded, if any. The engine
    /// is unusable for further writes either way.
    pub fn shutdown(self) -> Result<()> {
        let result = self.replication_barrier();
        self.pipeline.shutdown();
        result
    }
}

impl BlockDevice for PrinsEngine {
    fn geometry(&self) -> Geometry {
        self.device.geometry()
    }

    fn read_block(&self, lba: Lba, buf: &mut [u8]) -> Result<()> {
        self.device.read_block(lba, buf)?;
        self.shared.obs.reads.inc();
        Ok(())
    }

    fn write_block(&self, lba: Lba, buf: &[u8]) -> Result<()> {
        // Serialize capture+write+admit per LBA stripe (see field doc).
        let _stripe = self.write_stripes[(lba.index() % 64) as usize].lock();
        // Forward step, part 1: capture the old image (the read a
        // RAID-4/5 small write performs anyway) into a pooled buffer.
        let t0 = self.clock.now_nanos();
        let bs = self.geometry().block_size().bytes();
        let mut old = self.pool.get(bs);
        old.resize_zeroed(bs);
        self.device.read_block(lba, old.as_mut_slice())?;
        let capture_nanos = self.clock.now_nanos().saturating_sub(t0);

        // The local write itself.
        let t1 = self.clock.now_nanos();
        self.device.write_block(lba, buf)?;
        let write_nanos = self.clock.now_nanos().saturating_sub(t1);

        let obs = &self.shared.obs;
        obs.capture.record(capture_nanos);
        obs.local_write.record(write_nanos);
        obs.writes.inc();

        // Forward step, part 2: the new image's single hot-path copy,
        // into a pooled buffer the encoder reads from in place.
        let mut new = self.pool.get(buf.len());
        new.copy_from(buf);
        obs.hot_bytes_copied.add(buf.len() as u64);
        self.pipeline
            .admit(lba, old, new)
            .map_err(|_| BlockError::DeviceFailed {
                device: "prins replication pipeline is gone".into(),
            })
    }

    fn flush(&self) -> Result<()> {
        self.replication_barrier()?;
        self.device.flush()
    }
}

impl Drop for PrinsEngine {
    fn drop(&mut self) {
        // Best-effort teardown; errors were reportable via shutdown().
        // The pipeline drains queued work before its threads exit.
        self.pipeline.shutdown();
    }
}

impl std::fmt::Debug for PrinsEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrinsEngine")
            .field("geometry", &self.device.geometry())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}
