//! Engine-side observability wiring.
//!
//! [`PipeObs`] is the engine's handle bundle into its [`Registry`]:
//! every stage histogram and every engine and lane counter, pre-resolved
//! at engine start so the hot paths touch only atomics. It is always
//! on — the engine records into a private registry unless
//! [`EngineBuilder::observe`](crate::EngineBuilder::observe) hands it
//! one — and it is the engine's only copy of each number:
//! [`EngineStats`] and [`LaneStats`] are read from these instruments.
//! The typed event log is the one opt-in part: events are written only
//! into a registry the caller attached.
//!
//! Instrument names (durations in nanoseconds of the engine's clock):
//!
//! | name                       | kind      | measures                                 |
//! |----------------------------|-----------|------------------------------------------|
//! | `stage_capture_nanos`      | histogram | old-image read in `write_block`          |
//! | `stage_local_write_nanos`  | histogram | the local block write                    |
//! | `stage_admission_wait_nanos` | histogram | admit → claimed by an encode worker    |
//! | `stage_encode_nanos`       | histogram | parity encode proper                     |
//! | `stage_reorder_hold_nanos` | histogram | encoded → released in sequence order     |
//! | `stage_lane_queue_nanos`   | histogram | released → picked up by the sender lane  |
//! | `stage_send_nanos`         | histogram | the transport send call                  |
//! | `stage_ack_rtt_nanos`      | histogram | ack wait per in-flight frame             |
//! | `admit_queue_depth`        | histogram | admission-queue length at each admit     |
//! | `engine_writes`            | counter   | block writes accepted                    |
//! | `engine_reads`             | counter   | block reads served                       |
//! | `engine_coalesced_writes`  | counter   | writes folded into a queued write        |
//! | `engine_dispatched_writes` | counter   | writes released to the sender lanes      |
//! | `engine_hot_bytes_copied`  | counter   | bytes memcpy'd on the hot path           |
//! | `lane{i}_sends`            | counter   | wire frames lane `i` transmitted         |
//! | `lane{i}_acked_writes`     | counter   | writes replica `i` acknowledged          |
//! | `lane{i}_payload_bytes`    | counter   | sealed bytes handed to replica `i`       |
//! | `lane{i}_errors`           | counter   | send or ack failures on lane `i`         |
//! | `checksum_failures`        | counter   | frames a replica NAKed as corrupt        |
//! | `retransmits`              | counter   | retained frames re-sent after such a NAK |
//!
//! The buffer pool is a separate owner: its `pool_*` gauges, and the
//! derived `engine_bytes_copied_per_write`, are published by a
//! snapshot-time collector.

use std::sync::Arc;

use prins_buf::BufPool;
use prins_obs::{Counter, Event, Histogram, Registry};

use crate::{EngineStats, LaneStats};

/// One sender lane's counters.
pub(crate) struct LaneObs {
    pub sends: Arc<Counter>,
    pub acked_writes: Arc<Counter>,
    pub payload_bytes: Arc<Counter>,
    pub errors: Arc<Counter>,
}

/// Pre-resolved registry handles for the pipeline's hot paths.
pub(crate) struct PipeObs {
    pub registry: Arc<Registry>,
    /// Whether the caller attached `registry`: only then are events
    /// recorded.
    log_events: bool,
    pub capture: Arc<Histogram>,
    pub local_write: Arc<Histogram>,
    pub admission_wait: Arc<Histogram>,
    pub encode: Arc<Histogram>,
    pub reorder_hold: Arc<Histogram>,
    pub lane_queue: Arc<Histogram>,
    pub send: Arc<Histogram>,
    pub ack_rtt: Arc<Histogram>,
    pub queue_depth: Arc<Histogram>,
    pub writes: Arc<Counter>,
    pub reads: Arc<Counter>,
    pub coalesced_writes: Arc<Counter>,
    /// Writes released by the reorder stage to the sender lanes (with
    /// no replicas configured this is the replicated count).
    pub dispatched_writes: Arc<Counter>,
    /// Bytes memcpy'd on the hot path (block capture → wire frame).
    /// With the pooled path a block's bytes are copied once at capture
    /// and once onto the wire; this counter is what proves it.
    pub hot_bytes_copied: Arc<Counter>,
    /// Frames a replica answered with `NAK_CORRUPT` — damaged in
    /// flight, caught by the seal's CRC32C before apply.
    pub checksum_failures: Arc<Counter>,
    /// Retained frames re-sent after a corrupt NAK.
    pub retransmits: Arc<Counter>,
    /// One entry per sender lane, in replica order.
    pub lanes: Vec<LaneObs>,
}

impl PipeObs {
    /// Resolves the engine's instruments for `lanes` sender lanes in
    /// `registry`; `log_events` is whether the caller attached it.
    pub fn new(registry: Arc<Registry>, log_events: bool, lanes: usize) -> Self {
        let lane = |idx: usize, name: &str| registry.counter(&format!("lane{idx}_{name}"));
        Self {
            log_events,
            capture: registry.histogram("stage_capture_nanos"),
            local_write: registry.histogram("stage_local_write_nanos"),
            admission_wait: registry.histogram("stage_admission_wait_nanos"),
            encode: registry.histogram("stage_encode_nanos"),
            reorder_hold: registry.histogram("stage_reorder_hold_nanos"),
            lane_queue: registry.histogram("stage_lane_queue_nanos"),
            send: registry.histogram("stage_send_nanos"),
            ack_rtt: registry.histogram("stage_ack_rtt_nanos"),
            queue_depth: registry.histogram("admit_queue_depth"),
            writes: registry.counter("engine_writes"),
            reads: registry.counter("engine_reads"),
            coalesced_writes: registry.counter("engine_coalesced_writes"),
            dispatched_writes: registry.counter("engine_dispatched_writes"),
            hot_bytes_copied: registry.counter("engine_hot_bytes_copied"),
            checksum_failures: registry.counter("checksum_failures"),
            retransmits: registry.counter("retransmits"),
            lanes: (0..lanes)
                .map(|idx| LaneObs {
                    sends: lane(idx, "sends"),
                    acked_writes: lane(idx, "acked_writes"),
                    payload_bytes: lane(idx, "payload_bytes"),
                    errors: lane(idx, "errors"),
                })
                .collect(),
            registry,
        }
    }

    /// Whether events are recorded (the registry was attached).
    pub fn logs_events(&self) -> bool {
        self.log_events
    }

    /// Records `event` into an attached registry; a no-op otherwise.
    #[inline]
    pub fn record(&self, event: Event) {
        if self.log_events {
            self.registry.events().record(event);
        }
    }

    /// Publishes `pool`'s counters, and the copy audit derived from
    /// the engine's counters, as gauges at every snapshot.
    pub fn publish_pool_gauges(&self, pool: BufPool) {
        let (writes, hot_bytes) = (Arc::clone(&self.writes), Arc::clone(&self.hot_bytes_copied));
        self.registry.add_collector(Box::new(move |reg| {
            let stats = pool.stats();
            for (name, value) in [
                (
                    "engine_bytes_copied_per_write",
                    hot_bytes.get().checked_div(writes.get()).unwrap_or(0),
                ),
                ("pool_hits", stats.hits),
                ("pool_misses", stats.misses),
                ("pool_miss_ppm", stats.miss_ppm()),
                ("pool_in_use", stats.in_use),
                ("pool_in_use_hwm", stats.in_use_hwm),
            ] {
                reg.gauge(name).set(value);
            }
        }));
    }

    /// The engine's counters, read from the instruments.
    pub fn stats(&self) -> EngineStats {
        let lanes = &self.lanes;
        let writes_replicated = if lanes.is_empty() {
            self.dispatched_writes.get()
        } else {
            lanes
                .iter()
                .map(|l| l.acked_writes.get())
                .min()
                .unwrap_or(0)
        };
        EngineStats {
            writes: self.writes.get(),
            reads: self.reads.get(),
            writes_replicated,
            replicated_payload_bytes: lanes.iter().map(|l| l.payload_bytes.get()).sum(),
            local_write_nanos: self.local_write.sum(),
            overhead_nanos: self.capture.sum() + self.encode.sum(),
            send_nanos: self.send.sum() + self.ack_rtt.sum(),
            replication_errors: lanes.iter().map(|l| l.errors.get()).sum(),
            coalesced_writes: self.coalesced_writes.get(),
            queue_depth_hwm: self.queue_depth.max(),
        }
    }

    /// Per-lane counters, in replica order.
    pub fn lane_stats(&self) -> Vec<LaneStats> {
        self.lanes
            .iter()
            .map(|l| LaneStats {
                sends: l.sends.get(),
                acked_writes: l.acked_writes.get(),
                payload_bytes: l.payload_bytes.get(),
                errors: l.errors.get(),
            })
            .collect()
    }
}
