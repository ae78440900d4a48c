//! Zero-suppressing sparse encoding of parity blocks.
//!
//! A PRINS parity block `P' = A_new ⊕ A_old` is zero everywhere the write
//! did not change the block. The paper: "this parity block contains mostly
//! zeros with a very small portion of bit stream that is nonzero.
//! Therefore, it can be easily encoded to a small size parity block."
//!
//! [`SparseCodec`] extracts the maximal nonzero extents and serializes
//! them as `(gap, length, bytes)` triples with varint integers. Extents
//! separated by fewer than `min_gap` zero bytes are merged, trading a few
//! transmitted zeros for less per-segment metadata.

use std::fmt;

use crate::varint::{decode_varint, encode_varint};
use crate::xor::xor_in_place;

/// One contiguous nonzero extent of a parity block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Byte offset of the extent within the block.
    pub offset: usize,
    /// The extent's bytes (never empty for codec-produced segments).
    pub data: Vec<u8>,
}

impl Segment {
    /// One past the last byte covered by this segment.
    pub fn end(&self) -> usize {
        self.offset + self.data.len()
    }
}

/// Errors from decoding a serialized sparse parity.
#[derive(Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The byte stream ended before the structure was complete.
    Truncated,
    /// A segment lies (partly) outside the declared block length.
    SegmentOutOfBounds {
        /// Offset of the offending segment.
        offset: usize,
        /// End of the offending segment.
        end: usize,
        /// Declared block length.
        block_len: usize,
    },
    /// The declared block length does not match the expectation of the
    /// caller (a replica must apply parity to a same-sized block).
    BlockLenMismatch {
        /// Length encoded in the stream.
        encoded: usize,
        /// Length the caller expected.
        expected: usize,
    },
    /// Segments are not in strictly increasing, non-overlapping order.
    SegmentOrder,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "sparse parity stream truncated"),
            CodecError::SegmentOutOfBounds {
                offset,
                end,
                block_len,
            } => write!(
                f,
                "segment [{offset}, {end}) exceeds block length {block_len}"
            ),
            CodecError::BlockLenMismatch { encoded, expected } => write!(
                f,
                "encoded block length {encoded} does not match expected {expected}"
            ),
            CodecError::SegmentOrder => write!(f, "segments out of order or overlapping"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A parity block represented by its nonzero extents only.
///
/// Produced by [`SparseCodec::encode`]; this is what PRINS puts on the
/// wire (after framing) instead of the full data block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SparseParity {
    block_len: usize,
    segments: Vec<Segment>,
}

impl SparseParity {
    /// An all-zero parity (the write did not change the block).
    pub fn empty(block_len: usize) -> Self {
        Self {
            block_len,
            segments: Vec::new(),
        }
    }

    /// Length of the dense block this parity describes.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// The nonzero extents, ordered by offset.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Whether the parity is all zeros.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Total bytes of extent payload (excluding metadata).
    pub fn payload_bytes(&self) -> usize {
        self.segments.iter().map(|s| s.data.len()).sum()
    }

    /// Exact size of [`to_bytes`](Self::to_bytes) output without
    /// allocating it. This is the number PRINS reports as replication
    /// traffic for one write.
    pub fn wire_size(&self) -> usize {
        let mut n = varint_len(self.block_len as u64) + varint_len(self.segments.len() as u64);
        let mut prev_end = 0usize;
        for s in &self.segments {
            n += varint_len((s.offset - prev_end) as u64);
            n += varint_len(s.data.len() as u64);
            n += s.data.len();
            prev_end = s.end();
        }
        n
    }

    /// Serializes to the wire format:
    /// `varint(block_len) varint(n) { varint(gap) varint(len) bytes }*n`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size());
        self.write_into(&mut out);
        out
    }

    /// Appends the [`to_bytes`](Self::to_bytes) encoding to `out`.
    pub fn write_into(&self, out: &mut Vec<u8>) {
        encode_varint(out, self.block_len as u64);
        encode_varint(out, self.segments.len() as u64);
        let mut prev_end = 0usize;
        for s in &self.segments {
            encode_varint(out, (s.offset - prev_end) as u64);
            encode_varint(out, s.data.len() as u64);
            out.extend_from_slice(&s.data);
            prev_end = s.end();
        }
    }

    /// Expands back to a dense parity block of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` differs from the encoded block length; replicas
    /// must operate on the same block size as the primary.
    pub fn to_dense(&self, len: usize) -> Vec<u8> {
        assert_eq!(len, self.block_len, "dense expansion length mismatch");
        let mut out = vec![0u8; len];
        for s in &self.segments {
            out[s.offset..s.end()].copy_from_slice(&s.data);
        }
        out
    }

    /// XOR-composition with `other`: applying the result once equals
    /// applying `self` then `other`. XOR is associative, so a whole
    /// same-block parity chain folds into a single parity — what PRINS
    /// ships for a delta resync instead of replaying the chain frame by
    /// frame (extents that cancel vanish from the fold entirely).
    ///
    /// # Panics
    ///
    /// Panics if the two parities describe different block lengths.
    pub fn fold(&self, other: &SparseParity) -> SparseParity {
        assert_eq!(
            self.block_len, other.block_len,
            "folding parities of different block lengths"
        );
        let mut dense = vec![0u8; self.block_len];
        self.apply_to(&mut dense);
        other.apply_to(&mut dense);
        SparseCodec::default().encode(&dense)
    }

    /// Applies this parity to `block` in place (`block ^= P'`), i.e. the
    /// replica-side backward computation, touching only the changed
    /// extents.
    ///
    /// # Panics
    ///
    /// Panics if `block.len()` differs from the encoded block length.
    pub fn apply_to(&self, block: &mut [u8]) {
        assert_eq!(
            block.len(),
            self.block_len,
            "parity applied to wrong-sized block"
        );
        for s in &self.segments {
            xor_in_place(&mut block[s.offset..s.offset + s.data.len()], &s.data);
        }
    }
}

fn varint_len(v: u64) -> usize {
    ((64 - v.leading_zeros()).max(1) as usize).div_ceil(7)
}

/// Encoder/decoder between dense parity blocks and [`SparseParity`].
///
/// `min_gap` controls extent merging: runs of fewer than `min_gap` zero
/// bytes between two nonzero extents are kept inline rather than paying
/// for a fresh `(gap, len)` header. The default of 8 is near-optimal for
/// varint metadata of 2–4 bytes per segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SparseCodec {
    min_gap: usize,
}

impl SparseCodec {
    /// Creates a codec with the given merge threshold.
    pub fn new(min_gap: usize) -> Self {
        Self { min_gap }
    }

    /// The configured merge threshold.
    pub fn min_gap(&self) -> usize {
        self.min_gap
    }

    /// Extracts the nonzero extents of `parity`.
    ///
    /// Zero runs — the bulk of a PRINS parity — are skipped with the
    /// word-at-a-time [`scan_nonzero`](crate::scan_nonzero), so a
    /// mostly-zero block is scanned at memory bandwidth rather than one
    /// byte-compare per position.
    pub fn encode(&self, parity: &[u8]) -> SparseParity {
        let mut segments: Vec<Segment> = Vec::new();
        let n = parity.len();
        let mut next = crate::scan_nonzero(parity, 0);
        while let Some(start) = next {
            // Grow the segment: alternate nonzero stretches with zero
            // gaps shorter than `min_gap`, which stay inline.
            let mut last_nonzero = start + 1;
            loop {
                while last_nonzero < n && parity[last_nonzero] != 0 {
                    last_nonzero += 1;
                }
                match crate::scan_nonzero(parity, last_nonzero) {
                    Some(nz) if nz - last_nonzero < self.min_gap => last_nonzero = nz + 1,
                    later => {
                        next = later;
                        break;
                    }
                }
            }
            segments.push(Segment {
                offset: start,
                data: parity[start..last_nonzero].to_vec(),
            });
        }
        SparseParity {
            block_len: n,
            segments,
        }
    }

    /// Walks the merged nonzero extents of the *virtual* parity
    /// `old ⊕ new` without materializing it, invoking `emit(start, end)`
    /// for each extent in offset order. Extent boundaries are exactly
    /// those [`encode`](Self::encode) would produce on
    /// `forward_parity(old, new)` — the merge logic is byte-for-byte the
    /// same, but driven by [`scan_mismatch`](crate::scan_mismatch)
    /// instead of a dense scratch block.
    fn delta_segments(&self, old: &[u8], new: &[u8], mut emit: impl FnMut(usize, usize)) {
        let n = old.len();
        let mut next = crate::scan_mismatch(old, new, 0);
        while let Some(start) = next {
            let mut last = start + 1;
            loop {
                while last < n && old[last] != new[last] {
                    last += 1;
                }
                match crate::scan_mismatch(old, new, last) {
                    Some(nz) if nz - last < self.min_gap => last = nz + 1,
                    later => {
                        next = later;
                        break;
                    }
                }
            }
            emit(start, last);
        }
    }

    /// Segment count and exact wire size of the sparse encoding of
    /// `old ⊕ new`, computed without allocating the parity or the
    /// encoding. This is what the hot path uses to decide between a
    /// sparse-parity payload and a full-block fallback before writing a
    /// single byte.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn delta_wire_info(&self, old: &[u8], new: &[u8]) -> (usize, usize) {
        assert_eq!(old.len(), new.len(), "delta of different-sized blocks");
        let mut count = 0usize;
        let mut payload = 0usize;
        let mut prev_end = 0usize;
        self.delta_segments(old, new, |start, end| {
            count += 1;
            payload += varint_len((start - prev_end) as u64);
            payload += varint_len((end - start) as u64);
            payload += end - start;
            prev_end = end;
        });
        let total = varint_len(old.len() as u64) + varint_len(count as u64) + payload;
        (count, total)
    }

    /// Appends the sparse encoding of `old ⊕ new` directly to `out`,
    /// byte-identical to
    /// `self.encode(&forward_parity(old, new)).to_bytes()` but with zero
    /// intermediate allocations: segment XOR results are computed
    /// straight into the output buffer.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn encode_delta_into(&self, old: &[u8], new: &[u8], out: &mut Vec<u8>) {
        assert_eq!(old.len(), new.len(), "delta of different-sized blocks");
        let mut count = 0usize;
        self.delta_segments(old, new, |_, _| count += 1);
        encode_varint(out, old.len() as u64);
        encode_varint(out, count as u64);
        let mut prev_end = 0usize;
        self.delta_segments(old, new, |start, end| {
            encode_varint(out, (start - prev_end) as u64);
            encode_varint(out, (end - start) as u64);
            let at = out.len();
            out.resize(at + (end - start), 0);
            crate::xor_into(&mut out[at..], &old[start..end], &new[start..end]);
            prev_end = end;
        });
    }

    /// Parses the wire format produced by [`SparseParity::to_bytes`].
    ///
    /// # Errors
    ///
    /// * [`CodecError::Truncated`] if the stream ends early,
    /// * [`CodecError::BlockLenMismatch`] if the encoded block length is
    ///   not `expected_block_len`,
    /// * [`CodecError::SegmentOutOfBounds`] /
    ///   [`CodecError::SegmentOrder`] on malformed structure.
    pub fn decode(
        &self,
        bytes: &[u8],
        expected_block_len: usize,
    ) -> Result<SparseParity, CodecError> {
        let mut pos = 0usize;
        let (block_len, used) = decode_varint(&bytes[pos..]).ok_or(CodecError::Truncated)?;
        pos += used;
        let block_len = block_len as usize;
        if block_len != expected_block_len {
            return Err(CodecError::BlockLenMismatch {
                encoded: block_len,
                expected: expected_block_len,
            });
        }
        let (count, used) = decode_varint(&bytes[pos..]).ok_or(CodecError::Truncated)?;
        pos += used;
        let mut segments = Vec::with_capacity(count as usize);
        let mut prev_end = 0usize;
        for _ in 0..count {
            let (gap, used) = decode_varint(&bytes[pos..]).ok_or(CodecError::Truncated)?;
            pos += used;
            let (len, used) = decode_varint(&bytes[pos..]).ok_or(CodecError::Truncated)?;
            pos += used;
            let len = len as usize;
            if len == 0 {
                return Err(CodecError::SegmentOrder);
            }
            let offset = prev_end
                .checked_add(gap as usize)
                .ok_or(CodecError::SegmentOrder)?;
            let end = offset.checked_add(len).ok_or(CodecError::SegmentOrder)?;
            if end > block_len {
                return Err(CodecError::SegmentOutOfBounds {
                    offset,
                    end,
                    block_len,
                });
            }
            if pos + len > bytes.len() {
                return Err(CodecError::Truncated);
            }
            segments.push(Segment {
                offset,
                data: bytes[pos..pos + len].to_vec(),
            });
            pos += len;
            prev_end = end;
        }
        Ok(SparseParity {
            block_len,
            segments,
        })
    }
}

impl Default for SparseCodec {
    /// A codec with `min_gap = 8`.
    fn default() -> Self {
        Self::new(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward_parity;
    use proptest::prelude::*;

    fn roundtrip(codec: SparseCodec, parity: &[u8]) {
        let sp = codec.encode(parity);
        let bytes = sp.to_bytes();
        assert_eq!(bytes.len(), sp.wire_size(), "wire_size must be exact");
        let back = codec.decode(&bytes, parity.len()).unwrap();
        assert_eq!(back.to_dense(parity.len()), parity);
    }

    #[test]
    fn all_zero_parity_is_tiny() {
        let parity = vec![0u8; 8192];
        let sp = SparseCodec::default().encode(&parity);
        assert!(sp.is_empty());
        assert!(sp.wire_size() <= 3);
        roundtrip(SparseCodec::default(), &parity);
    }

    #[test]
    fn single_extent() {
        let mut parity = vec![0u8; 4096];
        parity[100..228].fill(0x55);
        let sp = SparseCodec::default().encode(&parity);
        assert_eq!(sp.segments().len(), 1);
        assert_eq!(sp.payload_bytes(), 128);
        // metadata is a handful of bytes
        assert!(sp.wire_size() < 128 + 10);
        roundtrip(SparseCodec::default(), &parity);
    }

    #[test]
    fn nearby_extents_are_merged_by_min_gap() {
        let mut parity = vec![0u8; 1024];
        parity[10] = 1;
        parity[14] = 1; // 3 zero gap < min_gap=8 → merged
        parity[500] = 1; // far away → separate segment
        let sp = SparseCodec::default().encode(&parity);
        assert_eq!(sp.segments().len(), 2);
        assert_eq!(sp.segments()[0].offset, 10);
        assert_eq!(sp.segments()[0].data.len(), 5);
        roundtrip(SparseCodec::default(), &parity);
    }

    #[test]
    fn fold_with_self_cancels() {
        let mut parity = vec![0u8; 256];
        parity[40..72].fill(0xAA);
        let sp = SparseCodec::default().encode(&parity);
        assert!(sp.fold(&sp).is_empty(), "X ^ X must fold to nothing");
    }

    #[test]
    fn min_gap_one_splits_every_run() {
        let mut parity = vec![0u8; 64];
        parity[1] = 1;
        parity[3] = 1;
        let sp = SparseCodec::new(1).encode(&parity);
        assert_eq!(sp.segments().len(), 2);
        roundtrip(SparseCodec::new(1), &parity);
    }

    #[test]
    fn trailing_zeros_are_not_included() {
        let mut parity = vec![0u8; 32];
        parity[0] = 9;
        parity[2] = 9; // merged with gap 1, then 29 zeros follow
        let sp = SparseCodec::default().encode(&parity);
        assert_eq!(sp.segments().len(), 1);
        assert_eq!(sp.segments()[0].data, vec![9, 0, 9]);
    }

    #[test]
    fn apply_to_equals_dense_xor() {
        let old: Vec<u8> = (0..512).map(|i| (i % 251) as u8).collect();
        let mut new = old.clone();
        new[50..60].fill(0);
        new[400] = 7;
        let parity = forward_parity(&old, &new);
        let sp = SparseCodec::default().encode(&parity);
        let mut block = old.clone();
        sp.apply_to(&mut block);
        assert_eq!(block, new);
    }

    #[test]
    fn decode_rejects_wrong_block_len() {
        let sp = SparseCodec::default().encode(&[0u8; 100]);
        let bytes = sp.to_bytes();
        assert_eq!(
            SparseCodec::default().decode(&bytes, 200),
            Err(CodecError::BlockLenMismatch {
                encoded: 100,
                expected: 200
            })
        );
    }

    #[test]
    fn decode_rejects_truncation_at_every_cut() {
        let mut parity = vec![0u8; 256];
        parity[3..10].fill(1);
        parity[100..120].fill(2);
        let bytes = SparseCodec::default().encode(&parity).to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                SparseCodec::default().decode(&bytes[..cut], 256).is_err(),
                "cut={cut}"
            );
        }
    }

    #[test]
    fn decode_rejects_out_of_bounds_segment() {
        // Hand-craft: block_len=4, 1 segment, gap=0, len=8.
        let mut bytes = Vec::new();
        crate::encode_varint(&mut bytes, 4);
        crate::encode_varint(&mut bytes, 1);
        crate::encode_varint(&mut bytes, 0);
        crate::encode_varint(&mut bytes, 8);
        bytes.extend_from_slice(&[1u8; 8]);
        assert!(matches!(
            SparseCodec::default().decode(&bytes, 4),
            Err(CodecError::SegmentOutOfBounds { .. })
        ));
    }

    #[test]
    fn decode_rejects_zero_length_segment() {
        let mut bytes = Vec::new();
        crate::encode_varint(&mut bytes, 16);
        crate::encode_varint(&mut bytes, 1);
        crate::encode_varint(&mut bytes, 0);
        crate::encode_varint(&mut bytes, 0);
        assert_eq!(
            SparseCodec::default().decode(&bytes, 16),
            Err(CodecError::SegmentOrder)
        );
    }

    #[test]
    fn wire_size_beats_dense_for_sparse_changes() {
        // The headline PRINS scenario: 8KB block, ~10% changed.
        let old = vec![0xabu8; 8192];
        let mut new = old.clone();
        new[1000..1800].fill(0xcd);
        let parity = forward_parity(&old, &new);
        let sp = SparseCodec::default().encode(&parity);
        assert!(sp.wire_size() < 8192 / 9, "expected ~10x reduction");
    }

    proptest! {
        #[test]
        fn prop_roundtrip_arbitrary_parity(parity in proptest::collection::vec(any::<u8>(), 0..2048),
                                           min_gap in 1usize..32) {
            let codec = SparseCodec::new(min_gap);
            let sp = codec.encode(&parity);
            let bytes = sp.to_bytes();
            prop_assert_eq!(bytes.len(), sp.wire_size());
            let back = codec.decode(&bytes, parity.len()).unwrap();
            prop_assert_eq!(back.to_dense(parity.len()), parity);
        }

        #[test]
        fn prop_fold_composes(base in proptest::collection::vec(any::<u8>(), 1..512),
                              p1 in proptest::collection::vec(any::<u8>(), 1..512),
                              p2 in proptest::collection::vec(any::<u8>(), 1..512)) {
            let n = base.len().min(p1.len()).min(p2.len());
            let codec = SparseCodec::default();
            let (a, b) = (codec.encode(&p1[..n]), codec.encode(&p2[..n]));
            let mut chained = base[..n].to_vec();
            a.apply_to(&mut chained);
            b.apply_to(&mut chained);
            let mut folded = base[..n].to_vec();
            a.fold(&b).apply_to(&mut folded);
            prop_assert_eq!(chained, folded);
        }

        #[test]
        fn prop_sparse_apply_matches_dense(old in proptest::collection::vec(any::<u8>(), 1..1024),
                                           flips in proptest::collection::vec((any::<prop::sample::Index>(), 1u8..), 0..16)) {
            let mut new = old.clone();
            for (idx, v) in &flips {
                new[idx.index(old.len())] ^= v;
            }
            let parity = forward_parity(&old, &new);
            let sp = SparseCodec::default().encode(&parity);
            let mut block = old.clone();
            sp.apply_to(&mut block);
            prop_assert_eq!(block, new);
        }

        /// Correctness of XOR-folding write coalescing: for any chain
        /// old → mid → new, applying the folded parity
        /// `old ⊕ new = (old ⊕ mid) ⊕ (mid ⊕ new)` in one step leaves
        /// the block exactly where applying the two per-write parities
        /// in sequence would.
        #[test]
        fn prop_folded_parity_equals_sequential_application(
            old in proptest::collection::vec(any::<u8>(), 1..1024),
            mid_seed in any::<u64>(),
            new_seed in any::<u64>()) {
            let mutate = |base: &[u8], seed: u64| -> Vec<u8> {
                // Sparse-ish mutation: flip a few regions.
                let mut out = base.to_vec();
                let n = out.len();
                for k in 0..1 + (seed % 4) as usize {
                    let at = (seed.wrapping_mul(k as u64 * 2 + 7) as usize) % n;
                    let len = 1 + (seed.wrapping_shr(8) as usize + k) % 32;
                    for b in &mut out[at..(at + len).min(n)] {
                        *b ^= (seed.wrapping_shr(16) as u8) | 1;
                    }
                }
                out
            };
            let mid = mutate(&old, mid_seed);
            let new = mutate(&mid, new_seed);
            let codec = SparseCodec::default();

            let p1 = codec.encode(&forward_parity(&old, &mid));
            let p2 = codec.encode(&forward_parity(&mid, &new));
            let folded = codec.encode(&forward_parity(&old, &new));

            let mut sequential = old.clone();
            p1.apply_to(&mut sequential);
            p2.apply_to(&mut sequential);

            let mut one_shot = old.clone();
            folded.apply_to(&mut one_shot);

            prop_assert_eq!(&sequential, &new);
            prop_assert_eq!(one_shot, sequential);
        }

        /// The fused delta encoder must be byte-identical to the
        /// materialize-then-encode path — frames built on the pooled hot
        /// path and the classic path are indistinguishable on the wire.
        #[test]
        fn prop_encode_delta_into_is_byte_identical(
            old in proptest::collection::vec(any::<u8>(), 0..1024),
            flips in proptest::collection::vec((any::<prop::sample::Index>(), 1u8..), 0..16),
            min_gap in 1usize..32) {
            let mut new = old.clone();
            for (idx, v) in &flips {
                if !new.is_empty() {
                    let at = idx.index(new.len());
                    new[at] ^= v;
                }
            }
            let codec = SparseCodec::new(min_gap);
            let classic = codec.encode(&forward_parity(&old, &new));
            let want = classic.to_bytes();

            let mut fused = vec![0xEEu8; 3]; // pre-existing bytes must be preserved
            codec.encode_delta_into(&old, &new, &mut fused);
            prop_assert_eq!(&fused[..3], &[0xEEu8; 3][..]);
            prop_assert_eq!(&fused[3..], want.as_slice());

            let (count, wire) = codec.delta_wire_info(&old, &new);
            prop_assert_eq!(count, classic.segments().len());
            prop_assert_eq!(wire, classic.wire_size());
        }

        #[test]
        fn prop_segments_sorted_nonoverlapping(parity in proptest::collection::vec(any::<u8>(), 0..1024)) {
            let sp = SparseCodec::default().encode(&parity);
            let mut prev_end = 0usize;
            for s in sp.segments() {
                prop_assert!(s.offset >= prev_end);
                prop_assert!(!s.data.is_empty());
                prop_assert!(*s.data.first().unwrap() != 0);
                prop_assert!(*s.data.last().unwrap() != 0);
                prev_end = s.end();
            }
        }
    }
}
