//! Block replication strategies: traditional full-block replication,
//! full-block with compression, and PRINS parity replication.
//!
//! This crate is the head-to-head comparison at the center of the paper's
//! evaluation. All three techniques observe the same write stream
//! `(lba, old, new)` and produce a wire payload; they differ only in what
//! they put on the network:
//!
//! | strategy | wire payload per write |
//! |---|---|
//! | [`ReplicationMode::Traditional`] | the full new block |
//! | [`ReplicationMode::Compressed`] | the full new block, LZSS-compressed (the paper's zlib baseline) |
//! | [`ReplicationMode::Prins`] | the zero-run-encoded parity `P' = new ⊕ old` |
//! | [`ReplicationMode::PrinsCompressed`] | the encoded parity, LZSS-compressed on top (ablation) |
//!
//! The replica side ([`ReplicaApplier`]) decodes the payload and restores
//! the block — for PRINS via the backward parity computation
//! `A_new = P' ⊕ A_old` against the replica's own copy.
//!
//! On the wire, every frame travels sealed ([`seal_frame`]) — the
//! replica accepts no other shape — and is answered by exactly one
//! response: the replica builds it with [`encode_response`] (the loop
//! is [`run_replica`]). The primary's end of each connection is a
//! [`ReplicaLink`], which seals every frame under its epoch and matches
//! each answer to the frame it answers.
//!
//! # Example
//!
//! ```
//! use prins_repl::{seal_frame, Applied, ReplicationMode, Replicator, ReplicaApplier};
//! use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
//!
//! # fn main() -> Result<(), prins_repl::ReplError> {
//! let replicator = ReplicationMode::Prins.replicator();
//!
//! // Primary side: a write changes 64 bytes of an 8 KB block.
//! let old = vec![0u8; 8192];
//! let mut new = old.clone();
//! new[100..164].fill(7);
//! let payload = replicator.encode_write(Lba(3), &old, &new);
//! assert!(payload.len() < 100); // vs 8192 for traditional replication
//!
//! // Replica side: holds the old image, recovers the new one.
//! let replica = MemDevice::new(BlockSize::kb8(), 8);
//! replica.write_block(Lba(3), &old)?;
//! let applied = ReplicaApplier::new(&replica).handle(&seal_frame(1, &payload))?;
//! assert_eq!(applied, Applied::Data);
//! assert_eq!(replica.read_block_vec(Lba(3))?, new);
//! # Ok(())
//! # }
//! ```

mod apply;
mod error;
mod link;
mod mode;
mod payload;
mod range;
mod replica;
mod seal;
mod strategy;

pub use apply::{Applied, ReplicaApplier};
pub use error::ReplError;
pub use link::{Collected, ReplicaLink};
pub use mode::{AckPolicy, ReplicationMode};
pub use payload::{BatchFrame, Payload, PayloadBody, BATCH_TAG, MAX_WIRE_LEN, STRIP_DELTA_TAG};
pub use range::SeqRange;
pub use replica::{run_replica, run_replica_applier, serve_simulated, verify_consistent};
pub use seal::{
    classify_response, decode_digest_request, decode_read_request, encode_ack,
    encode_digest_request, encode_read_request, encode_response, open_frame, seal_batch_frame_into,
    seal_begin, seal_frame, seal_frame_into, Response, SealWriter, ACK, DIGEST_ACK, DIGEST_REQ_TAG,
    NAK, NAK_CORRUPT, READ_ACK, READ_REQ_TAG, SEAL_TAG,
};
pub use strategy::{CompressedReplicator, PrinsReplicator, Replicator, TraditionalReplicator};
