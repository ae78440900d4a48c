//! Sharding a volume across replica groups.
//!
//! A large volume is spread over several replica groups
//! ([`ClusterGroup`]), each a full-size device serving the blocks a
//! [`RendezvousPlacement`] assigns it. Because every group keeps volume
//! addresses, ranges can move between groups live.

use std::ops::Range;
use std::sync::Arc;

use prins_block::{BlockDevice, Lba};
use prins_net::{Clock, WallClock};
use prins_obs::{Counter, Event, EventKind, Registry, TraceSink, TraceStage};

use crate::tracer::Tracer;
use crate::{ClusterError, ClusterGroup, ReadOutcome, RendezvousPlacement, WriteOutcome};

/// An in-progress live migration of one LBA range between groups.
#[derive(Clone, Debug)]
struct Migration {
    range: Range<u64>,
    from: usize,
    to: usize,
    /// Next LBA to copy; `range.end` means the copy is done.
    cursor: u64,
}

/// Snapshot of an in-progress migration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MigrationStatus {
    /// The volume LBA range being moved.
    pub range: Range<u64>,
    /// Group the range is moving from (still the owner).
    pub from: usize,
    /// Group the range is moving to.
    pub to: usize,
    /// Blocks copied so far.
    pub copied: u64,
    /// Blocks still to copy before cutover.
    pub remaining: u64,
}

/// A [`ShardedCluster`]'s metrics — migration traffic and cutover
/// events — in a private registry timed by the wall clock until
/// [`ShardedCluster::attach_observer`] chooses others.
struct ShardObs {
    registry: Arc<Registry>,
    clock: Arc<dyn Clock>,
    /// Payload bytes copied by live migrations.
    migration_bytes: Arc<Counter>,
}

impl ShardObs {
    fn new(registry: Arc<Registry>, clock: Arc<dyn Clock>) -> Self {
        Self {
            migration_bytes: registry.counter("migration_bytes"),
            registry,
            clock,
        }
    }

    fn record(&self, kind: EventKind) {
        let at = self.clock.now_nanos();
        self.registry.events().record(Event::new(at, kind));
    }
}

/// A volume sharded across several [`ClusterGroup`]s.
///
/// Writes and reads are routed by weighted rendezvous hashing
/// ([`RendezvousPlacement`]); every group's device holds the whole
/// volume, so a block keeps its address on whichever group owns it.
///
/// That is what makes **live migration** possible:
/// [`migrate_start`](Self::migrate_start) copies a range
/// to another group under foreground writes (which dual-dispatch to
/// both groups until cutover), and the cutover bumps the source
/// group's response epochs so acknowledgements stranded mid-move drop
/// deterministically instead of being credited to post-move traffic.
pub struct ShardedCluster<D> {
    placement: RendezvousPlacement,
    groups: Vec<ClusterGroup<D>>,
    /// Ownership overrides from completed migrations, latest wins.
    overrides: Vec<(Range<u64>, usize)>,
    migration: Option<Migration>,
    obs: ShardObs,
    /// Mints the migration copy-batch traces. Per-write traces live in
    /// each group's own tracer (shard tag = group index); this one uses
    /// the tag one past the last group, so batch ids never collide with
    /// any group's write ids.
    tracer: Tracer,
}

impl<D: BlockDevice> ShardedCluster<D> {
    /// Assembles a sharded volume.
    ///
    /// # Panics
    ///
    /// Panics if the group count differs from the placement's, or a
    /// group's device does not hold the whole volume.
    pub fn new(placement: RendezvousPlacement, groups: Vec<ClusterGroup<D>>) -> Self {
        assert_eq!(groups.len(), placement.group_count(), "one group per shard");
        for (g, group) in groups.iter().enumerate() {
            let want = placement.num_blocks();
            let have = group.device().geometry().num_blocks();
            assert_eq!(
                have, want,
                "group {g} device holds {have} blocks, placement needs {want}"
            );
        }
        Self {
            placement,
            groups,
            overrides: Vec::new(),
            migration: None,
            obs: ShardObs::new(Registry::new(), Arc::new(WallClock::new())),
            tracer: Tracer::default(),
        }
    }

    /// Chooses the metrics registry and clock migrations record their
    /// `migrate-batch` / `cutover` events and the `migration_bytes`
    /// counter into from here on (default: a private registry and the
    /// wall clock). Attach each group's observer separately (they may
    /// share the registry).
    pub fn attach_observer(&mut self, registry: Arc<Registry>, clock: Arc<dyn Clock>) {
        self.obs = ShardObs::new(registry, clock);
    }

    /// Attaches one shared trace sink to every group (shard tag =
    /// group index, so a dual-dispatched write during a migration
    /// naturally produces one trace per group) and arms migration
    /// tracing: each [`migrate_step`](Self::migrate_step) batch mints
    /// a standalone trace completed by a `migrate-copy` hop on the
    /// target group's lane. Size
    /// [`TraceConfig::shards`](prins_obs::TraceConfig::shards) as
    /// `group_count() + 1` to give migration traffic its own SLO slot.
    pub fn attach_tracer(&mut self, sink: Arc<TraceSink>, clock: Arc<dyn Clock>) {
        for (g, group) in self.groups.iter_mut().enumerate() {
            group.attach_tracer(Arc::clone(&sink), g as u32, Arc::clone(&clock));
        }
        self.tracer = Tracer::attach(sink, self.groups.len() as u32, clock);
    }

    /// The attached trace sink, if any.
    pub fn trace_sink(&self) -> Option<&Arc<TraceSink>> {
        self.tracer.sink()
    }

    /// The placement policy.
    pub fn placement(&self) -> &RendezvousPlacement {
        &self.placement
    }

    /// Number of replica groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The group serving shard `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn group(&self, g: usize) -> &ClusterGroup<D> {
        &self.groups[g]
    }

    /// Mutable access to the group serving shard `g` (for lifecycle
    /// and resync driving).
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    pub fn group_mut(&mut self, g: usize) -> &mut ClusterGroup<D> {
        &mut self.groups[g]
    }

    /// The group currently owning `lba`: the latest migration override
    /// covering it, or the placement's assignment.
    pub fn owner(&self, lba: Lba) -> usize {
        for (range, g) in self.overrides.iter().rev() {
            if range.contains(&lba.index()) {
                return *g;
            }
        }
        self.placement.group_for(lba)
    }

    /// Routes one write to the owning shard. While a migration covers
    /// `lba`, the write dual-dispatches: the target group applies it
    /// too, so blocks already copied stay current until cutover.
    ///
    /// # Errors
    ///
    /// As [`ClusterGroup::write`] (a dual-dispatch failure on the
    /// migration target surfaces like any replication failure).
    pub fn write(&mut self, lba: Lba, new: &[u8]) -> Result<WriteOutcome, ClusterError> {
        let g = self.owner(lba);
        let outcome = self.groups[g].write(lba, new)?;
        if let Some(m) = &self.migration {
            if m.range.contains(&lba.index()) {
                self.groups[m.to].write(lba, new)?;
            }
        }
        Ok(outcome)
    }

    /// Serves one read from the owning shard, offloading to an in-sync
    /// replica when the freshness guard allows (see
    /// [`ClusterGroup::read`]).
    ///
    /// # Errors
    ///
    /// As [`ClusterGroup::read`].
    pub fn read(&mut self, lba: Lba) -> Result<ReadOutcome, ClusterError> {
        let g = self.owner(lba);
        self.groups[g].read(lba)
    }

    /// Snapshot of the in-progress migration, if any.
    pub fn migration(&self) -> Option<MigrationStatus> {
        self.migration.as_ref().map(|m| MigrationStatus {
            range: m.range.clone(),
            from: m.from,
            to: m.to,
            copied: m.cursor - m.range.start,
            remaining: m.range.end - m.cursor,
        })
    }

    /// Begins a live migration of `range` from group `from` to group
    /// `to`. Drive the copy with [`migrate_step`](Self::migrate_step);
    /// foreground writes may be interleaved between steps and
    /// dual-dispatch to both groups until cutover.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Migration`] if a migration is already in
    /// progress, the range is empty/out of bounds, the groups are
    /// invalid, or any block in `range` is not currently owned by
    /// `from`.
    pub fn migrate_start(
        &mut self,
        range: Range<u64>,
        from: usize,
        to: usize,
    ) -> Result<(), ClusterError> {
        if self.migration.is_some() {
            return Err(ClusterError::Migration(
                "a migration is already in progress".into(),
            ));
        }
        if from >= self.groups.len() || to >= self.groups.len() || from == to {
            return Err(ClusterError::Migration(format!(
                "invalid group pair {from} -> {to}"
            )));
        }
        if range.is_empty() || range.end > self.placement.num_blocks() {
            return Err(ClusterError::Migration(format!(
                "range {range:?} is empty or out of bounds"
            )));
        }
        for i in range.clone() {
            let owner = self.owner(Lba(i));
            if owner != from {
                return Err(ClusterError::Migration(format!(
                    "block {i} is owned by group {owner}, not {from}"
                )));
            }
        }
        self.migration = Some(Migration {
            cursor: range.start,
            range,
            from,
            to,
        });
        Ok(())
    }

    /// Copies up to `max_blocks` blocks of the migrating range to the
    /// target group (through its full replication path). When the copy
    /// completes, the migration **cuts over**: both groups drain their
    /// in-flight traffic, the source group opens a new response
    /// generation ([`ClusterGroup::bump_epochs`]) so acknowledgements
    /// stranded mid-move identify themselves as stale, and ownership of
    /// the range flips to the target.
    ///
    /// Returns the number of blocks still to copy (0 = cut over).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Migration`] if no migration is in progress;
    /// device or replication errors as [`ClusterGroup::write`].
    pub fn migrate_step(&mut self, max_blocks: usize) -> Result<u64, ClusterError> {
        let Some(m) = self.migration.clone() else {
            return Err(ClusterError::Migration("no migration in progress".into()));
        };
        let batch_end = m.range.end.min(m.cursor + max_blocks as u64);
        let bs = self.groups[m.from].device().geometry().block_size().bytes() as u64;
        // One trace per copy batch (the per-block writes below mint
        // their own traces through the target group's tracer).
        let tid = self.tracer.begin(0);
        for i in m.cursor..batch_end {
            let lba = Lba(i);
            let data = self.groups[m.from].device().read_block_vec(lba)?;
            self.groups[m.to].write(lba, &data)?;
        }
        if let Some(live) = self.migration.as_mut() {
            live.cursor = batch_end;
        }
        let copied = batch_end - m.cursor;
        let remaining = m.range.end - batch_end;
        let stage = TraceStage::MigrateCopy;
        self.tracer
            .complete(tid, stage, m.to as u32, (copied * bs) as usize);
        self.obs.migration_bytes.add(copied * bs);
        self.obs.record(EventKind::MigrateBatch {
            copied: copied as u32,
            remaining: remaining as u32,
        });
        if remaining == 0 {
            self.cutover();
        }
        Ok(remaining)
    }

    /// Runs a live migration of `range` from group `from` to group `to`
    /// to completion — [`migrate_start`](Self::migrate_start) plus
    /// [`migrate_step`](Self::migrate_step) until cutover.
    ///
    /// # Errors
    ///
    /// As the two driving calls.
    pub fn migrate(
        &mut self,
        range: Range<u64>,
        from: usize,
        to: usize,
    ) -> Result<(), ClusterError> {
        self.migrate_start(range, from, to)?;
        while self.migrate_step(64)? > 0 {}
        Ok(())
    }

    /// Flips ownership of the migrated range to the target group.
    fn cutover(&mut self) {
        let Some(m) = self.migration.take() else {
            return;
        };
        // Settle in-flight traffic on both sides of the move, then
        // close the source group's response generations: an ack still
        // queued on a slow link answers a frame from before the move
        // and must drop on arrival, not be matched to post-cutover
        // frames.
        self.groups[m.from].drain();
        self.groups[m.from].bump_epochs();
        self.groups[m.to].drain();
        self.overrides.push((m.range.clone(), m.to));
        self.obs.record(EventKind::Cutover {
            from: m.from as u32,
            to: m.to as u32,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterConfig;
    use prins_block::{BlockSize, MemDevice};

    /// A replica-less group: primary image only — enough to exercise
    /// routing, dual dispatch, and cutover without threads.
    fn group(blocks: u64) -> ClusterGroup<MemDevice> {
        ClusterGroup::new(
            MemDevice::new(BlockSize::kb4(), blocks),
            ClusterConfig::default(),
            vec![],
        )
    }

    #[test]
    fn live_migration_cuts_over_under_foreground_writes() {
        let p = RendezvousPlacement::new(8, 2);
        let from = p.group_for(Lba(0));
        let to = 1 - from;
        let mut c = ShardedCluster::new(p, vec![group(8), group(8)]);
        c.write(Lba(0), &[0xAA; 4096]).unwrap();

        c.migrate_start(0..1, from, to).unwrap();
        // A foreground write during the move dual-dispatches.
        let b = vec![0xBB; 4096];
        c.write(Lba(0), &b).unwrap();
        assert_eq!(c.group(to).device().read_block_vec(Lba(0)).unwrap(), b);
        assert_eq!(c.migration().unwrap().remaining, 1);

        assert_eq!(c.migrate_step(8).unwrap(), 0);
        assert!(c.migration().is_none());
        assert_eq!(c.owner(Lba(0)), to);

        // Post-cutover writes land only on the new owner.
        let d = vec![0xDD; 4096];
        c.write(Lba(0), &d).unwrap();
        assert_eq!(c.read(Lba(0)).unwrap().data, d);
        assert_eq!(c.group(to).device().read_block_vec(Lba(0)).unwrap(), d);
        assert_eq!(c.group(from).device().read_block_vec(Lba(0)).unwrap(), b);
    }

    #[test]
    fn migrate_validates_range_ownership_and_exclusivity() {
        let p = RendezvousPlacement::new(8, 2);
        let from = p.group_for(Lba(0));
        let mut c = ShardedCluster::new(p, vec![group(8), group(8)]);
        // Self-migration, bad range, and a foreign-owned block all fail.
        assert!(c.migrate_start(0..1, from, from).is_err());
        assert!(c.migrate_start(3..3, from, 1 - from).is_err());
        assert!(c.migrate_start(0..9, from, 1 - from).is_err());
        assert!(
            c.migrate_start(0..8, from, 1 - from).is_err(),
            "the whole volume cannot be owned by one group"
        );
        // Only one migration at a time.
        c.migrate_start(0..1, from, 1 - from).unwrap();
        let other = (0..8).map(Lba).find(|l| c.owner(*l) == 1 - from).unwrap();
        assert!(c
            .migrate_start(other.index()..other.index() + 1, 1 - from, from)
            .is_err());
        assert!(matches!(
            c.migrate_step(0),
            Ok(1) // zero-block step: copy stands still, no cutover
        ));
    }
}
