//! Causal tracing shared by the cluster's write paths.

use std::sync::Arc;

use prins_net::Clock;
use prins_obs::{TraceId, TraceSink, TraceStage};

/// A hookup to a shared [`TraceSink`], or none. Mints one
/// deterministic [`TraceId`] per operation — a function of the shard
/// tag and dispatch order, never of randomness or wall time — and
/// records its hops timestamped by the injected clock. Detached, no
/// trace is minted and every hop is a no-op.
#[derive(Default)]
pub(crate) struct Tracer {
    hookup: Option<(Arc<TraceSink>, Arc<dyn Clock>)>,
    /// Shard tag minted into every trace id — ties SLO accounting to
    /// the shard's slot in [`prins_obs::TraceConfig::shards`].
    shard: u32,
    counter: u64,
}

impl Tracer {
    pub fn attach(sink: Arc<TraceSink>, shard: u32, clock: Arc<dyn Clock>) -> Self {
        Self {
            hookup: Some((sink, clock)),
            shard,
            counter: 0,
        }
    }

    pub fn sink(&self) -> Option<&Arc<TraceSink>> {
        self.hookup.as_ref().map(|(sink, _)| sink)
    }

    /// Opens the next trace, held open by one pending completion until
    /// [`release`](Self::release)d or completed.
    pub fn begin(&mut self, bytes: usize) -> Option<TraceId> {
        let (sink, clock) = self.hookup.as_ref()?;
        let id = TraceId::for_shard(self.shard, self.counter);
        self.counter += 1;
        sink.begin(id, self.shard, 1, clock.now_nanos(), bytes);
        Some(id)
    }

    fn hop(&self, id: Option<TraceId>, record: impl FnOnce(&TraceSink, TraceId, u64)) {
        if let (Some((sink, clock)), Some(id)) = (&self.hookup, id) {
            record(sink, id, clock.now_nanos());
        }
    }

    /// Appends a hop.
    pub fn event(&self, id: Option<TraceId>, stage: TraceStage, lane: u32, bytes: usize) {
        self.hop(id, |sink, id, now| sink.event(id, stage, lane, now, bytes));
    }

    /// Appends a hop whose completion the trace now also waits for.
    pub fn fan_out(&self, id: Option<TraceId>, stage: TraceStage, lane: u32, bytes: usize) {
        if let (Some((sink, _)), Some(id)) = (&self.hookup, id) {
            sink.add_pending(id, 1);
        }
        self.event(id, stage, lane, bytes);
    }

    /// Appends a terminal hop, retiring one pending completion.
    pub fn complete(&self, id: Option<TraceId>, stage: TraceStage, lane: u32, bytes: usize) {
        self.hop(id, |sink, id, now| {
            sink.complete(id, stage, lane, now, bytes)
        });
    }

    /// Drops the hold [`begin`](Self::begin) took.
    pub fn release(&self, id: Option<TraceId>) {
        self.hop(id, |sink, id, now| sink.release(id, now));
    }

    /// Books `count` stale answers dropped while the trace waited.
    pub fn wrong_epoch(&self, id: Option<TraceId>, lane: u32, count: u32) {
        for _ in 0..count {
            self.hop(id, |sink, id, now| sink.mark_wrong_epoch(id, lane, now));
        }
    }
}
