//! Replication-pipeline throughput: the staged pipeline (concurrent
//! parity encoding, per-replica sender lanes, frame batching, windowed
//! acks, XOR-folding coalescing) against the serial fan-out baseline.
//!
//! The scenario is the paper's multi-site setting with one bad hop:
//! three replicas, one of whose links is 10x slower than its peers
//! (injected with [`prins_net::LinkHandle::set_send_cost`]). The serial
//! baseline — encode, send to every replica from the caller's thread,
//! await every acknowledgement, repeat — pays the slow hop on *every*
//! write. The pipeline hides it: encoding overlaps sending, each lane
//! pays only its own link, batching amortizes the slow hop's per-frame
//! cost, and the ack window keeps frames in flight across the RTT.
//!
//! Both sides replay the same captured TPC-C trace and both must leave
//! every replica bit-identical to the primary; the measurement is
//! rejected otherwise.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use prins_block::{BlockDevice, Lba, MemDevice};
use prins_cluster::{ClusterConfig, ClusterGroup};
use prins_core::EngineBuilder;
use prins_net::{channel_pair, FaultTransport, LinkModel, MeterSnapshot, TrafficMeter, Transport};
use prins_repl::{run_replica, verify_consistent, AckPolicy, ReplError, ReplicationMode};
use prins_workloads::{capture_trace, Workload, WriteTrace};

use crate::{FigureTable, TrafficConfig};

/// Per-frame send cost of a healthy link in the scenario.
const FAST_LINK_COST: Duration = Duration::from_micros(30);
/// Per-frame send cost of the degraded link (10x the healthy cost).
const SLOW_LINK_COST: Duration = Duration::from_micros(300);

/// Pipeline knob settings for one measured run.
#[derive(Clone, Copy, Debug)]
pub struct PipelineKnobs {
    /// Parity-encoding worker threads.
    pub encode_workers: usize,
    /// In-flight frames allowed per sender lane.
    pub ack_window: usize,
    /// Payloads packed per wire frame.
    pub batch_frames: usize,
    /// XOR-folding write coalescing.
    pub coalesce: bool,
}

impl PipelineKnobs {
    /// The full pipeline: encode pool, deep ack window, batching, and
    /// coalescing all on.
    pub fn full() -> Self {
        Self {
            encode_workers: 4,
            ack_window: 8,
            batch_frames: 8,
            coalesce: true,
        }
    }
}

/// Result of one serial-vs-pipelined comparison.
#[derive(Clone, Copy, Debug)]
pub struct PipelineMeasurement {
    /// Trace writes replayed through each side.
    pub writes: u64,
    /// Replicas fanned out to.
    pub replicas: usize,
    /// Wall-clock time of the serial fan-out baseline.
    pub serial: Duration,
    /// Wall-clock time of the pipelined engine (including the final
    /// barrier).
    pub pipelined: Duration,
    /// Writes folded into a queued same-LBA job by the pipeline.
    pub coalesced_writes: u64,
    /// Admission-queue high-water mark observed by the pipeline.
    pub queue_depth_hwm: u64,
    /// Wire bytes the serial baseline put on its links during the timed
    /// window (a [`MeterSnapshot`] delta, excluding settle traffic).
    pub serial_wire_bytes: u64,
    /// Wire bytes the pipelined engine put on its links during the
    /// timed window.
    pub pipelined_wire_bytes: u64,
}

impl PipelineMeasurement {
    /// Serial wall-clock over pipelined wall-clock.
    pub fn speedup(&self) -> f64 {
        self.serial.as_secs_f64() / self.pipelined.as_secs_f64().max(f64::EPSILON)
    }

    /// Pipelined throughput in writes per second.
    pub fn pipelined_writes_per_sec(&self) -> f64 {
        self.writes as f64 / self.pipelined.as_secs_f64().max(f64::EPSILON)
    }

    /// Serial-baseline throughput in writes per second.
    pub fn serial_writes_per_sec(&self) -> f64 {
        self.writes as f64 / self.serial.as_secs_f64().max(f64::EPSILON)
    }
}

impl fmt::Display for PipelineMeasurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pipeline: {} writes x {} replicas (one link 10x slow); \
             serial {:.0} w/s, pipelined {:.0} w/s = {:.1}x \
             ({} coalesced, queue hwm {}, wire {} -> {} KB)",
            self.writes,
            self.replicas,
            self.serial_writes_per_sec(),
            self.pipelined_writes_per_sec(),
            self.speedup(),
            self.coalesced_writes,
            self.queue_depth_hwm,
            self.serial_wire_bytes / 1024,
            self.pipelined_wire_bytes / 1024,
        )
    }
}

/// A trace flattened for replay plus each touched block's pre-trace
/// image and the device size the stream needs.
pub(crate) struct TraceStream {
    pub(crate) writes: Vec<(Lba, Vec<u8>)>,
    pub(crate) initial: Vec<(Lba, Vec<u8>)>,
    pub(crate) num_blocks: u64,
}

pub(crate) fn trace_writes(trace: &WriteTrace) -> TraceStream {
    let mut writes = Vec::with_capacity(trace.len());
    let mut initial = Vec::new();
    let mut seen = HashSet::new();
    let mut max_lba = 0u64;
    trace.replay(|lba, old, new| {
        if seen.insert(lba.index()) {
            initial.push((lba, old.to_vec()));
        }
        max_lba = max_lba.max(lba.index());
        writes.push((lba, new.to_vec()));
    });
    TraceStream {
        writes,
        initial,
        num_blocks: max_lba + 1,
    }
}

/// One replica fan-out: transports for the primary, the replica devices
/// (pre-seeded with the trace's first-touch images), and the worker
/// threads applying frames. The last replica's link carries the 10x
/// send cost.
struct ReplicaSet {
    transports: Vec<Box<dyn Transport>>,
    devices: Vec<Arc<MemDevice>>,
    workers: Vec<std::thread::JoinHandle<Result<u64, ReplError>>>,
}

fn replica_set(
    n: usize,
    stream: &TraceStream,
    block_size: prins_block::BlockSize,
) -> Result<ReplicaSet, Box<dyn std::error::Error>> {
    let mut transports: Vec<Box<dyn Transport>> = Vec::new();
    let mut devices = Vec::new();
    let mut workers = Vec::new();
    for i in 0..n {
        let (primary_side, replica_side) = channel_pair(LinkModel::t1());
        let (faulty, link) = FaultTransport::new(primary_side);
        let cost = if i + 1 == n {
            SLOW_LINK_COST
        } else {
            FAST_LINK_COST
        };
        link.set_send_cost(cost, Duration::ZERO);
        let device = Arc::new(MemDevice::new(block_size, stream.num_blocks));
        for (lba, image) in &stream.initial {
            device.write_block(*lba, image)?;
        }
        let dev = Arc::clone(&device);
        workers.push(std::thread::spawn(move || {
            run_replica(&*dev, &replica_side)
        }));
        transports.push(Box::new(faulty));
        devices.push(device);
    }
    Ok(ReplicaSet {
        transports,
        devices,
        workers,
    })
}

fn seeded_primary(
    stream: &TraceStream,
    block_size: prins_block::BlockSize,
) -> Result<Arc<MemDevice>, Box<dyn std::error::Error>> {
    let primary = Arc::new(MemDevice::new(block_size, stream.num_blocks));
    for (lba, image) in &stream.initial {
        primary.write_block(*lba, image)?;
    }
    Ok(primary)
}

/// Checks every replica against the primary and joins the workers.
fn settle(primary: &MemDevice, set: ReplicaSet) -> Result<(), Box<dyn std::error::Error>> {
    let ReplicaSet {
        transports,
        devices,
        workers,
    } = set;
    drop(transports);
    for w in workers {
        w.join().expect("replica worker")?;
    }
    for dev in &devices {
        if !verify_consistent(primary, &**dev)? {
            return Err("replica diverged from primary".into());
        }
    }
    Ok(())
}

/// The baseline: encode, fan out, and await every acknowledgement from
/// the caller's thread, one write at a time — a [`ClusterGroup`] at ack
/// window 1 whose quorum is every replica, so any replica failure fails
/// the run.
fn run_serial(
    stream: &TraceStream,
    set: ReplicaSet,
    primary: &MemDevice,
) -> Result<(Duration, u64), Box<dyn std::error::Error>> {
    let (meters, before) = meter_window(&set.transports);
    let config = ClusterConfig {
        mode: ReplicationMode::Prins,
        ack_window: 1,
        write_quorum: set.transports.len(),
        ..ClusterConfig::default()
    };
    let mut group = ClusterGroup::new(primary, config, set.transports);
    let start = Instant::now();
    for (lba, new) in &stream.writes {
        group.write(*lba, new)?;
    }
    let elapsed = start.elapsed();
    let wire_bytes = window_wire_bytes(&meters, &before);
    drop(group);
    let remainder = ReplicaSet {
        transports: Vec::new(),
        devices: set.devices,
        workers: set.workers,
    };
    settle(primary, remainder)?;
    Ok((elapsed, wire_bytes))
}

/// Clones each transport's meter and snapshots it, opening a
/// measurement window: the matching [`window_wire_bytes`] call reads
/// only the traffic sent in between.
fn meter_window(transports: &[Box<dyn Transport>]) -> (Vec<Arc<TrafficMeter>>, Vec<MeterSnapshot>) {
    let meters: Vec<Arc<TrafficMeter>> = transports.iter().map(|t| Arc::clone(t.meter())).collect();
    let before = meters.iter().map(|m| m.snapshot()).collect();
    (meters, before)
}

/// Closes a [`meter_window`]: total wire bytes sent since it opened.
fn window_wire_bytes(meters: &[Arc<TrafficMeter>], before: &[MeterSnapshot]) -> u64 {
    meters
        .iter()
        .zip(before)
        .map(|(m, b)| m.snapshot().delta(b).wire_bytes_sent)
        .sum()
}

/// The pipelined side: the same trace through a [`prins_core`] engine
/// with the given knobs; the clock stops after the flush barrier.
fn run_pipelined(
    stream: &TraceStream,
    set: ReplicaSet,
    primary: Arc<MemDevice>,
    knobs: PipelineKnobs,
) -> Result<(Duration, prins_core::EngineStats, u64), Box<dyn std::error::Error>> {
    let (meters, before) = meter_window(&set.transports);
    let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
        .mode(ReplicationMode::Prins)
        .encode_workers(knobs.encode_workers)
        .ack_policy(AckPolicy::Window(knobs.ack_window))
        .batch_frames(knobs.batch_frames)
        .coalesce(knobs.coalesce);
    for transport in set.transports {
        builder = builder.replica(transport);
    }
    let engine = builder.build();
    let start = Instant::now();
    for (lba, new) in &stream.writes {
        engine.write_block(*lba, new)?;
    }
    engine.flush()?;
    let elapsed = start.elapsed();
    let wire_bytes = window_wire_bytes(&meters, &before);
    let stats = engine.stats();
    engine.shutdown()?;
    let remainder = ReplicaSet {
        transports: Vec::new(),
        devices: set.devices,
        workers: set.workers,
    };
    settle(&primary, remainder)?;
    Ok((elapsed, stats, wire_bytes))
}

/// Runs the headline comparison: a captured TPC-C trace against 3
/// replicas (one link 10x slower), serial fan-out vs the full pipeline.
///
/// # Errors
///
/// Propagates workload, device, and replication failures, and fails if
/// either side leaves a replica inconsistent with the primary.
pub fn pipeline_experiment(
    ops: usize,
    bench_scale: bool,
) -> Result<PipelineMeasurement, Box<dyn std::error::Error>> {
    let block_size = prins_block::BlockSize::kb8();
    let mut config = if bench_scale {
        TrafficConfig::bench(block_size, ops)
    } else {
        TrafficConfig::smoke(block_size)
    };
    config.ops = ops;
    let trace = capture_trace(Workload::TpccOracle, &config.run_config())?;
    if trace.is_empty() {
        return Err("pipeline experiment needs a non-empty trace; increase --ops".into());
    }
    let stream = trace_writes(&trace);
    let replicas = 3;

    let serial_primary = seeded_primary(&stream, block_size)?;
    let serial_set = replica_set(replicas, &stream, block_size)?;
    let (serial, serial_wire_bytes) = run_serial(&stream, serial_set, &serial_primary)?;

    let piped_primary = seeded_primary(&stream, block_size)?;
    let piped_set = replica_set(replicas, &stream, block_size)?;
    let (pipelined, stats, pipelined_wire_bytes) =
        run_pipelined(&stream, piped_set, piped_primary, PipelineKnobs::full())?;

    Ok(PipelineMeasurement {
        writes: stream.writes.len() as u64,
        replicas,
        serial,
        pipelined,
        coalesced_writes: stats.coalesced_writes,
        queue_depth_hwm: stats.queue_depth_hwm,
        serial_wire_bytes,
        pipelined_wire_bytes,
    })
}

/// The pipeline sweep: encode workers x replica count x ack window
/// (batching tied to the window), each cell's throughput and speedup
/// over the serial baseline at the same replica count.
///
/// # Errors
///
/// As [`pipeline_experiment`].
pub fn pipeline_figure(
    ops: usize,
    bench_scale: bool,
) -> Result<FigureTable, Box<dyn std::error::Error>> {
    let block_size = prins_block::BlockSize::kb8();
    let mut config = if bench_scale {
        TrafficConfig::bench(block_size, ops)
    } else {
        TrafficConfig::smoke(block_size)
    };
    config.ops = ops;
    let trace = capture_trace(Workload::TpccOracle, &config.run_config())?;
    if trace.is_empty() {
        return Err("pipeline series needs a non-empty trace; increase --ops".into());
    }
    let stream = trace_writes(&trace);

    let sweep = [
        PipelineKnobs {
            encode_workers: 1,
            ack_window: 1,
            batch_frames: 1,
            coalesce: false,
        },
        PipelineKnobs {
            encode_workers: 2,
            ack_window: 4,
            batch_frames: 4,
            coalesce: false,
        },
        PipelineKnobs::full(),
    ];
    let mut rows = Vec::new();
    for replicas in [1usize, 3] {
        let primary = seeded_primary(&stream, block_size)?;
        let set = replica_set(replicas, &stream, block_size)?;
        let (serial, _) = run_serial(&stream, set, &primary)?;
        let serial_wps = stream.writes.len() as f64 / serial.as_secs_f64().max(f64::EPSILON);
        rows.push(vec![
            replicas.to_string(),
            "serial".to_string(),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            format!("{serial_wps:.0}"),
            "1.0x".to_string(),
            "0".to_string(),
        ]);
        for knobs in sweep {
            let primary = seeded_primary(&stream, block_size)?;
            let set = replica_set(replicas, &stream, block_size)?;
            let (elapsed, stats, _) = run_pipelined(&stream, set, primary, knobs)?;
            let wps = stream.writes.len() as f64 / elapsed.as_secs_f64().max(f64::EPSILON);
            rows.push(vec![
                replicas.to_string(),
                knobs.encode_workers.to_string(),
                knobs.ack_window.to_string(),
                knobs.batch_frames.to_string(),
                if knobs.coalesce { "on" } else { "off" }.to_string(),
                format!("{wps:.0}"),
                format!("{:.1}x", wps / serial_wps),
                stats.coalesced_writes.to_string(),
            ]);
        }
    }
    Ok(FigureTable {
        title: format!(
            "Pipeline: TPC-C replication throughput, one link 10x slow ({} writes)",
            stream.writes.len()
        ),
        headers: [
            "replicas", "workers", "window", "batch", "coalesce", "writes/s", "speedup", "folded",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipelined_beats_serial_fanout_by_2x() {
        let m = pipeline_experiment(20, false).expect("experiment runs");
        assert_eq!(m.replicas, 3);
        assert!(m.writes > 0);
        assert!(m.speedup() >= 2.0, "pipeline must be >=2x serial: {m}");
        // The windowed meter deltas saw the replication traffic, and
        // both sides shipped the same PRINS payloads (batch framing
        // differs by only a few header bytes per frame).
        assert!(m.serial_wire_bytes > 0 && m.pipelined_wire_bytes > 0);
    }

    #[test]
    fn pipeline_figure_covers_the_sweep() {
        let t = pipeline_figure(10, false).expect("figure runs");
        // 2 replica counts x (serial + 3 knob settings).
        assert_eq!(t.rows.len(), 8);
        let text = t.to_string();
        assert!(text.contains("speedup"), "{text}");
        assert!(text.contains("serial"), "{text}");
    }
}
