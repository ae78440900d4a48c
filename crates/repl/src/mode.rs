//! Replication mode selector.

use crate::{CompressedReplicator, PrinsReplicator, Replicator, TraditionalReplicator};

/// Which replication technique a node runs — the x-axis of every
/// comparison in the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReplicationMode {
    /// Replicate every changed block in full.
    Traditional,
    /// Replicate every changed block, compressed (zlib-class baseline).
    Compressed,
    /// Replicate the encoded parity of the change (the paper's
    /// contribution).
    Prins,
    /// PRINS with additional LZSS over the encoded parity (ablation).
    PrinsCompressed,
}

impl ReplicationMode {
    /// All modes, in the order the paper's figures present them.
    pub const ALL: [ReplicationMode; 4] = [
        ReplicationMode::Traditional,
        ReplicationMode::Compressed,
        ReplicationMode::Prins,
        ReplicationMode::PrinsCompressed,
    ];

    /// The three modes the paper's figures compare.
    pub const PAPER: [ReplicationMode; 3] = [
        ReplicationMode::Traditional,
        ReplicationMode::Compressed,
        ReplicationMode::Prins,
    ];

    /// Instantiates the corresponding replicator.
    pub fn replicator(self) -> Box<dyn Replicator> {
        match self {
            ReplicationMode::Traditional => Box::new(TraditionalReplicator),
            ReplicationMode::Compressed => Box::new(CompressedReplicator::default()),
            ReplicationMode::Prins => Box::new(PrinsReplicator::new()),
            ReplicationMode::PrinsCompressed => {
                Box::new(PrinsReplicator::with_parity_compression())
            }
        }
    }
}

/// When the primary waits for replica acknowledgements.
///
/// The paper's queueing model assumes [`AckPolicy::PerWrite`]: "a
/// computing node will not generate another write request until the
/// previous write is successfully replicated". [`AckPolicy::Window`]
/// pipelines up to `n` unacknowledged writes, hiding WAN round-trips —
/// a natural extension the paper leaves on the table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AckPolicy {
    /// Wait for every replica's acknowledgement before returning.
    PerWrite,
    /// Allow up to this many writes in flight before collecting acks.
    Window(usize),
}

impl std::fmt::Display for ReplicationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ReplicationMode::Traditional => "traditional",
            ReplicationMode::Compressed => "compressed",
            ReplicationMode::Prins => "prins",
            ReplicationMode::PrinsCompressed => "prins+lzss",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_block::Lba;

    #[test]
    fn factory_names_match_display() {
        for mode in ReplicationMode::ALL {
            assert_eq!(mode.replicator().name(), mode.to_string());
        }
    }

    #[test]
    fn factory_produces_working_replicators() {
        let old = vec![0u8; 4096];
        let new = vec![1u8; 4096];
        for mode in ReplicationMode::ALL {
            let payload = mode.replicator().encode_write(Lba(0), &old, &new);
            assert!(!payload.is_empty(), "{mode}");
        }
    }
}
