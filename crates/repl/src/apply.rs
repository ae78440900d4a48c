//! Replica-side payload application.

use std::collections::HashMap;

use prins_block::{crc32c, BlockDevice, Lba};
use prins_compress::{Codec, Lzss};
use prins_parity::{ErasureCodec, SparseCodec, XorCodec};

use crate::{
    decode_digest_request, decode_read_request, open_frame, BatchFrame, Payload, PayloadBody,
    ReplError, BATCH_TAG, DIGEST_REQ_TAG, READ_REQ_TAG,
};

/// What [`ReplicaApplier::handle`] did with an incoming frame, telling
/// the transport loop which response to send.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Applied {
    /// Every payload of the frame was applied; answer with an ACK.
    Data,
    /// A scrub digest probe; answer with a digest ack carrying this
    /// CRC32C of the probed block as read from the replica's disk.
    Digest(u32),
    /// A block read (an offloaded read or a rebuild's strip read);
    /// answer with a read ack carrying this zero-run-encoded image of
    /// the requested block.
    Read(Vec<u8>),
}

/// Applies replication payloads to a replica's local device.
///
/// For PRINS payloads this performs the paper's backward parity
/// computation: read `A_old` at the payload's LBA, XOR in the decoded
/// parity extents, and store the result in place — "the data block is
/// recomputed back at the replica storage site upon receiving the
/// parity".
///
/// # Integrity
///
/// Every frame arrives sealed (see [`crate::seal_frame`] for the
/// grammar): the CRC32C is verified *before* anything is parsed or
/// written, and the frame's epoch is remembered (see [`last_epoch`]) so
/// the transport loop can echo it in acknowledgements. A frame that does
/// not open as a seal is rejected like a damaged one.
///
/// The applier also keeps a per-LBA checksum table of every block it
/// has written. Before a parity frame XORs against `A_old`, the table
/// entry is checked against the bytes read back from disk — if the
/// replica's media corrupted the block since the last write, the apply
/// fails with [`ReplError::ChecksumMismatch`] instead of silently
/// fabricating a state the primary never held.
///
/// [`last_epoch`]: Self::last_epoch
pub struct ReplicaApplier<D> {
    device: D,
    sparse: SparseCodec,
    lzss: Lzss,
    codec: Box<dyn ErasureCodec>,
    applied: u64,
    last_epoch: u64,
    checksums: HashMap<u64, u32>,
    /// Recycled block buffer for the backward computation — one device
    /// block, reused across applies so the steady-state parity path
    /// performs no heap allocation for the base image.
    scratch: Vec<u8>,
}

impl<D: BlockDevice> ReplicaApplier<D> {
    /// Creates an applier owning a handle to the replica's device —
    /// a plain reference, an `Arc`, or the device itself all work.
    ///
    /// Deltas apply through the mirroring [`XorCodec`] by default; see
    /// [`with_codec`](Self::with_codec) for erasure-coded strips.
    pub fn new(device: D) -> Self {
        Self {
            device,
            sparse: SparseCodec::default(),
            lzss: Lzss::default(),
            codec: Box::new(XorCodec::mirror()),
            applied: 0,
            last_epoch: 0,
            checksums: HashMap::new(),
            scratch: Vec::new(),
        }
    }

    /// Replaces the erasure codec that strip deltas apply through.
    ///
    /// A replica holding a Reed–Solomon parity strip needs the full
    /// GF(256) update `strip ^= c · Δ`; the XOR default only accepts
    /// coefficients 0 and 1.
    pub fn with_codec(mut self, codec: Box<dyn ErasureCodec>) -> Self {
        self.codec = codec;
        self
    }

    /// Number of write payloads applied so far.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Epoch of the most recent sealed frame opened (0 before any).
    ///
    /// Acknowledgement loops echo this so the primary can discard acks
    /// that predate a rejoin.
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// CRC32C of the block at `lba` as read back from the device right
    /// now — the scrubber's ground truth, deliberately *not* served
    /// from the checksum table so media corruption is visible.
    ///
    /// # Errors
    ///
    /// Propagates read failures from the device.
    pub fn digest(&self, lba: Lba) -> Result<u32, ReplError> {
        Ok(crc32c(&self.device.read_block_vec(lba)?))
    }

    /// Opens one sealed frame, dispatches on its body and says how to
    /// respond: a [`BatchFrame`]'s payloads or a single payload are
    /// applied in order, a digest or read request is served from disk.
    ///
    /// A batch is *not* atomic: a malformed or rejected payload aborts
    /// the batch with earlier payloads already applied — exactly the
    /// state a reconnecting primary reconciles anyway. A batch holds
    /// plain payloads only; a nested batch or request is malformed.
    ///
    /// # Errors
    ///
    /// * [`ReplError::ChecksumMismatch`] for a frame that fails its seal
    ///   check or is not sealed at all, and for a parity or read whose
    ///   on-disk base no longer matches the checksum table — answer
    ///   those with `NAK_CORRUPT` so the sender retransmits,
    /// * [`ReplError::Malformed`] / [`ReplError::Parity`] /
    ///   [`ReplError::Compress`] on undecodable bodies,
    /// * [`ReplError::Block`] if the local device rejects the write.
    pub fn handle(&mut self, frame: &[u8]) -> Result<Applied, ReplError> {
        let (epoch, body) = open_frame(frame)?;
        self.last_epoch = epoch;
        match body.first() {
            Some(&DIGEST_REQ_TAG) => {
                let lba = decode_digest_request(body)?;
                Ok(Applied::Digest(self.digest(lba)?))
            }
            Some(&READ_REQ_TAG) => {
                let lba = decode_read_request(body)?;
                Ok(Applied::Read(self.strip_image(lba)?))
            }
            Some(&BATCH_TAG) => {
                for payload in &BatchFrame::from_bytes(body)?.payloads {
                    self.apply_payload(payload)?;
                }
                Ok(Applied::Data)
            }
            _ => self.apply_payload(body).map(|()| Applied::Data),
        }
    }

    fn apply_payload(&mut self, payload_bytes: &[u8]) -> Result<(), ReplError> {
        let payload = Payload::from_bytes(payload_bytes)?;
        let bs = self.device.geometry().block_size().bytes();
        match payload.body {
            PayloadBody::Full(data) => {
                self.write_checked(payload.lba, &data)?;
            }
            PayloadBody::Compressed { block_len, data } => {
                if block_len != bs {
                    return Err(ReplError::Malformed(format!(
                        "compressed payload block_len {block_len} != device block size {bs}"
                    )));
                }
                let block = self.lzss.decompress(&data, block_len)?;
                self.write_checked(payload.lba, &block)?;
            }
            PayloadBody::Parity(data) => {
                self.apply_parity(payload.lba, &data)?;
            }
            PayloadBody::ParityCompressed { sparse_len, data } => {
                let sparse = self.lzss.decompress(&data, sparse_len)?;
                self.apply_parity(payload.lba, &sparse)?;
            }
            PayloadBody::StripDelta { coeff, data } => {
                self.apply_strip_delta(payload.lba, coeff, &data)?;
            }
        }
        self.applied += 1;
        Ok(())
    }

    fn write_checked(&mut self, lba: Lba, block: &[u8]) -> Result<(), ReplError> {
        self.device.write_block(lba, block)?;
        self.checksums.insert(lba.index(), crc32c(block));
        Ok(())
    }

    fn apply_parity(&mut self, lba: Lba, sparse_bytes: &[u8]) -> Result<(), ReplError> {
        // PRINS mirroring is the coefficient-1 strip update: the data
        // strip of every erasure code is systematic, so the two paths
        // share one implementation through the codec seam.
        self.apply_strip_delta(lba, 1, sparse_bytes)
    }

    fn apply_strip_delta(
        &mut self,
        lba: Lba,
        coeff: u8,
        sparse_bytes: &[u8],
    ) -> Result<(), ReplError> {
        let bs = self.device.geometry().block_size().bytes();
        let delta = self.sparse.decode(sparse_bytes, bs)?;
        // Backward computation: A_new = A_old ^ c·Δ, touching only the
        // changed extents. A_old must be exactly what was last written
        // here — verify it against the checksum table first, because
        // updating a corrupted base fabricates a block the primary
        // never held and no later check could catch.
        //
        // The base image lands in the recycled scratch buffer (taken
        // out of `self` for the duration so the codec can borrow it
        // mutably) — no allocation after the first apply.
        let mut block = std::mem::take(&mut self.scratch);
        block.resize(bs, 0);
        let result = (|| {
            self.device.read_block(lba, &mut block)?;
            if let Some(&expected) = self.checksums.get(&lba.index()) {
                let got = crc32c(&block);
                if got != expected {
                    return Err(ReplError::ChecksumMismatch { expected, got });
                }
            }
            for seg in delta.segments() {
                self.codec
                    .apply_delta(&mut block[seg.offset..seg.end()], coeff, &seg.data)
                    .map_err(|e| ReplError::Malformed(format!("strip delta: {e}")))?;
            }
            self.write_checked(lba, &block)
        })();
        self.scratch = block;
        result
    }

    /// The zero-run-encoded image of the block at `lba` as read from
    /// disk — a rebuild contribution or an offloaded-read answer.
    /// Checked against the checksum table so neither a rebuild nor a
    /// served read ever ingests silently corrupted media.
    fn strip_image(&mut self, lba: Lba) -> Result<Vec<u8>, ReplError> {
        let block = self.device.read_block_vec(lba)?;
        if let Some(&expected) = self.checksums.get(&lba.index()) {
            let got = crc32c(&block);
            if got != expected {
                return Err(ReplError::ChecksumMismatch { expected, got });
            }
        }
        Ok(self.sparse.encode(&block).to_bytes())
    }
}

impl<D> std::fmt::Debug for ReplicaApplier<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaApplier")
            .field("applied", &self.applied)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        seal_frame, CompressedReplicator, PrinsReplicator, Replicator, TraditionalReplicator,
    };
    use prins_block::{BlockSize, MemDevice};
    use rand::{RngExt, SeedableRng};

    #[allow(clippy::type_complexity)]
    fn scenario() -> (MemDevice, Vec<(Lba, Vec<u8>, Vec<u8>)>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let replica = MemDevice::new(BlockSize::kb4(), 16);
        let mut writes = Vec::new();
        for _ in 0..40 {
            let lba = Lba(rng.random_range(0..16));
            let old = replica.read_block_vec(lba).unwrap();
            let mut new = old.clone();
            let start = rng.random_range(0..4000);
            let len = rng.random_range(1..96);
            for b in &mut new[start..start + len] {
                *b = rng.random();
            }
            writes.push((lba, old, new));
            // Track what the replica *will* hold after each apply so the
            // next old image is correct.
            replica.write_block(lba, &writes.last().unwrap().2).unwrap();
        }
        // Reset replica to zeros; the writes carry the evolution.
        let fresh = MemDevice::new(BlockSize::kb4(), 16);
        (fresh, writes)
    }

    fn replay(replicator: &dyn Replicator) {
        let (replica, writes) = scenario();
        let mut applier = ReplicaApplier::new(&replica);
        for (lba, old, new) in &writes {
            let payload = replicator.encode_write(*lba, old, new);
            assert_eq!(
                applier.handle(&seal_frame(1, &payload)).unwrap(),
                Applied::Data
            );
            assert_eq!(&replica.read_block_vec(*lba).unwrap(), new);
        }
        assert_eq!(applier.applied(), writes.len() as u64);
    }

    #[test]
    fn traditional_payloads_apply() {
        replay(&TraditionalReplicator);
    }

    #[test]
    fn compressed_payloads_apply() {
        replay(&CompressedReplicator::default());
    }

    #[test]
    fn prins_payloads_apply() {
        replay(&PrinsReplicator::new());
    }

    #[test]
    fn prins_compressed_payloads_apply() {
        replay(&PrinsReplicator::with_parity_compression());
    }

    #[test]
    fn wrong_block_size_parity_is_rejected() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        // Parity encoded for an 8 KB block cannot apply to a 4 KB device.
        let old = [0u8; 8192];
        let mut new = old;
        new[100..132].fill(1); // sparse change → parity payload
        let payload = PrinsReplicator::new().encode_write(Lba(0), &old, &new);
        assert!(matches!(
            applier.handle(&seal_frame(1, &payload)),
            Err(ReplError::Parity(_))
        ));
    }

    #[test]
    fn out_of_range_lba_is_rejected() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let payload = TraditionalReplicator.encode_write(Lba(99), &[0u8; 4096], &[1u8; 4096]);
        assert!(matches!(
            applier.handle(&seal_frame(1, &payload)),
            Err(ReplError::Block(_))
        ));
    }

    #[test]
    fn garbage_payload_is_rejected() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        assert!(matches!(
            applier.handle(&seal_frame(1, &[200, 1, 2, 3])),
            Err(ReplError::Malformed(_))
        ));
    }

    #[test]
    fn batch_frame_applies_all_inner_payloads_in_order() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let replicator = PrinsReplicator::new();
        // A chain of two writes to the same block, packed in one frame:
        // applying out of order would XOR against the wrong base.
        let a = vec![0u8; 4096];
        let mut b = a.clone();
        b[10..20].fill(7);
        let mut c = b.clone();
        c[15..40].fill(9);
        let frame = BatchFrame {
            payloads: vec![
                replicator.encode_write(Lba(2), &a, &b),
                replicator.encode_write(Lba(2), &b, &c),
                TraditionalReplicator.encode_write(Lba(0), &a, &b),
            ],
        };
        assert_eq!(
            applier.handle(&seal_frame(1, &frame.to_bytes())).unwrap(),
            Applied::Data
        );
        assert_eq!(applier.applied(), 3);
        assert_eq!(replica.read_block_vec(Lba(2)).unwrap(), c);
        assert_eq!(replica.read_block_vec(Lba(0)).unwrap(), b);
    }

    #[test]
    fn empty_batch_counts_as_no_data() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let empty = seal_frame(1, &BatchFrame::default().to_bytes());
        assert_eq!(applier.handle(&empty).unwrap(), Applied::Data);
        assert_eq!(applier.applied(), 0);
    }

    #[test]
    fn sealed_frames_open_transparently_and_track_epoch() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let inner = TraditionalReplicator.encode_write(Lba(1), &[0u8; 4096], &[5u8; 4096]);
        assert_eq!(
            applier.handle(&seal_frame(9, &inner)).unwrap(),
            Applied::Data
        );
        assert_eq!(applier.last_epoch(), 9);
        assert_eq!(replica.read_block_vec(Lba(1)).unwrap(), vec![5u8; 4096]);
        // Bare frames are rejected with a checksum error (so the
        // transport loop answers NAK_CORRUPT, not a fatal NAK).
        assert!(matches!(
            applier.handle(&inner),
            Err(ReplError::ChecksumMismatch { .. })
        ));
        // A corrupted seal is rejected before anything is applied.
        let mut damaged = seal_frame(10, &inner);
        let last = damaged.len() - 1;
        damaged[last] ^= 0x04;
        assert!(applier.handle(&damaged).is_err());
        assert_eq!(applier.last_epoch(), 9);
        assert_eq!(applier.applied(), 1);
    }

    #[test]
    fn parity_against_corrupted_base_is_detected() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let replicator = PrinsReplicator::new();
        let a = vec![0u8; 4096];
        let mut b = a.clone();
        b[100..140].fill(3);
        applier
            .handle(&seal_frame(1, &replicator.encode_write(Lba(2), &a, &b)))
            .unwrap();
        // Simulate media corruption behind the applier's back.
        let mut damaged = b.clone();
        damaged[0] ^= 0x80;
        replica.write_block(Lba(2), &damaged).unwrap();
        let mut c = b.clone();
        c[120..160].fill(8);
        let err = applier
            .handle(&seal_frame(1, &replicator.encode_write(Lba(2), &b, &c)))
            .unwrap_err();
        assert!(matches!(err, ReplError::ChecksumMismatch { .. }), "{err}");
        // The corrupted base was never XORed into a fabricated state.
        assert_eq!(replica.read_block_vec(Lba(2)).unwrap(), damaged);
    }

    #[test]
    fn digest_reads_the_disk_not_the_table() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let block = vec![7u8; 4096];
        let write = TraditionalReplicator.encode_write(Lba(0), &[0u8; 4096], &block);
        applier.handle(&seal_frame(1, &write)).unwrap();
        assert_eq!(applier.digest(Lba(0)).unwrap(), prins_block::crc32c(&block));
        let mut damaged = block.clone();
        damaged[9] ^= 1;
        replica.write_block(Lba(0), &damaged).unwrap();
        assert_eq!(
            applier.digest(Lba(0)).unwrap(),
            prins_block::crc32c(&damaged)
        );
    }

    #[test]
    fn strip_delta_applies_through_the_codec() {
        use prins_parity::SparseCodec;
        // A replica holding RS parity strip 0 of a k=4,m=2 group: its
        // update for a data-strip delta Δ on column j is c_{0,j}·Δ.
        let rs = prins_ec::ReedSolomon::k4m2();
        let coeff = rs.coefficient(0, 2);
        assert!(coeff > 1, "Cauchy coefficients exercise real GF math");
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica).with_codec(Box::new(rs));

        let mut delta = vec![0u8; 4096];
        for (i, b) in delta[700..900].iter_mut().enumerate() {
            *b = (i * 13 % 251) as u8 + 1;
        }
        let sparse = SparseCodec::default().encode(&delta).to_bytes();
        let payload = Payload {
            lba: Lba(1),
            body: PayloadBody::StripDelta {
                coeff,
                data: sparse,
            },
        };
        assert_eq!(
            applier.handle(&seal_frame(1, &payload.to_bytes())).unwrap(),
            Applied::Data
        );
        let got = replica.read_block_vec(Lba(1)).unwrap();
        let want: Vec<u8> = delta.iter().map(|&d| prins_ec::gf::mul(coeff, d)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn xor_codec_rejects_gf_coefficients() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let sparse = prins_parity::SparseCodec::default()
            .encode(&[1u8; 4096])
            .to_bytes();
        let payload = Payload {
            lba: Lba(0),
            body: PayloadBody::StripDelta {
                coeff: 3,
                data: sparse,
            },
        };
        assert!(matches!(
            applier.handle(&seal_frame(1, &payload.to_bytes())),
            Err(ReplError::Malformed(_))
        ));
    }

    #[test]
    fn read_request_returns_the_disk_image_or_refuses_corruption() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let mut block = vec![0u8; 4096];
        block[128..192].fill(0xa7);
        let write = TraditionalReplicator.encode_write(Lba(1), &[0u8; 4096], &block);
        applier.handle(&seal_frame(1, &write)).unwrap();
        let req = crate::encode_read_request(Lba(1));
        match applier.handle(&seal_frame(3, &req)).unwrap() {
            Applied::Read(sparse) => {
                let dense = applier.sparse.decode(&sparse, 4096).unwrap().to_dense(4096);
                assert_eq!(dense, block);
                assert!(sparse.len() < 200, "zero runs are elided");
            }
            other => panic!("expected read image, got {other:?}"),
        }
        assert_eq!(applier.last_epoch(), 3);
        // A bare request is not served.
        assert!(matches!(
            applier.handle(&req),
            Err(ReplError::ChecksumMismatch { .. })
        ));
        // Media rot under the checksum table is refused, never served.
        let mut damaged = block.clone();
        damaged[130] ^= 0x02;
        replica.write_block(Lba(1), &damaged).unwrap();
        assert!(matches!(
            applier.handle(&seal_frame(4, &req)),
            Err(ReplError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn bad_inner_payload_aborts_batch_after_earlier_applies() {
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let good = TraditionalReplicator.encode_write(Lba(1), &[0u8; 4096], &[3u8; 4096]);
        let frame = BatchFrame {
            payloads: vec![good, vec![200, 1, 2]],
        };
        assert!(applier.handle(&seal_frame(1, &frame.to_bytes())).is_err());
        // The first payload landed before the abort.
        assert_eq!(replica.read_block_vec(Lba(1)).unwrap(), vec![3u8; 4096]);
    }

    /// A batch is one flat level: a deeply nested one (sealed, so it
    /// reaches the parser) is malformed, not a recursion that overflows
    /// the replica thread's stack.
    #[test]
    fn nested_batches_are_malformed_not_recursed() {
        let mut new = vec![0u8; 4096];
        new[7] = 1;
        let mut body = PrinsReplicator::new().encode_write(Lba(1), &[0u8; 4096], &new);
        for _ in 0..10_000 {
            body = BatchFrame {
                payloads: vec![body],
            }
            .to_bytes();
        }
        let frame = seal_frame(1, &body);
        let outcome = std::thread::spawn(move || {
            let replica = MemDevice::new(BlockSize::kb4(), 4);
            let mut applier = ReplicaApplier::new(&replica);
            let outcome = applier.handle(&frame);
            (
                outcome,
                applier.applied(),
                replica.read_block_vec(Lba(1)).unwrap(),
            )
        })
        .join()
        .expect("the replica thread survives");
        assert!(
            matches!(outcome.0, Err(ReplError::Malformed(_))),
            "{:?}",
            outcome.0
        );
        assert_eq!(outcome.1, 0);
        assert_eq!(outcome.2, vec![0u8; 4096]);
    }
}
