//! The replication wire payload.
//!
//! Every replicated write is one payload:
//!
//! ```text
//! payload := tag(u8) varint(lba) body
//! tag 0 (Full):             raw block bytes
//! tag 1 (Compressed):       varint(block_len) lzss bytes
//! tag 2 (Parity):           sparse-parity bytes (self-describing)
//! tag 3 (ParityCompressed): varint(sparse_len) lzss(sparse bytes)
//! tag 8 (StripDelta):       coeff(u8) sparse-parity bytes
//! ```
//!
//! `StripDelta` is the erasure-coded write: the receiver RMW-applies
//! `strip ^= coeff · Δ` in GF(256), where `Δ` is the sparse-decoded
//! delta. For the data strip's owner the coefficient is 1 (plain XOR);
//! parity strip owners get their generator coefficient, so one sparse
//! delta on the wire serves every strip of the stripe. The `lba` field
//! addresses the *stripe* (the node-local strip block index).
//!
//! The LBA travels with the data, mirroring the paper's "results of the
//! forward parity computation are then sent together with meta-data such
//! as LBA to replica nodes".
//!
//! A [`BatchFrame`] packs several payloads into one message (and one
//! acknowledgement round-trip):
//!
//! ```text
//! batch := tag(5) varint(count) { varint(len) payload }*count
//! ```
//!
//! Either one travels as the body of a sealed frame (see
//! [`crate::seal_frame`] for the whole grammar). The batch tag is
//! disjoint from the payload tags, so the replica dispatches on the
//! body's first byte; a batch holds payloads only, never another batch.

use prins_block::Lba;
use prins_parity::{decode_varint, encode_varint};

use crate::ReplError;

/// Upper bound on any length claim decoded from the wire
/// (`block_len`, `sparse_len`).
///
/// These varints are attacker-controlled: a frame claiming a
/// multi-gigabyte uncompressed size must be rejected at parse time,
/// before the claim can reach an allocator (the LZSS decoder enforces
/// the same budget as defense in depth). The budget is
/// [`prins_compress::MAX_DECODE_LEN`] — far above the largest block the
/// stack ships (64 KB), far below harm.
pub const MAX_WIRE_LEN: usize = prins_compress::MAX_DECODE_LEN;

/// Decoded body of a replication payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PayloadBody {
    /// Full block image (traditional replication / initial sync).
    Full(Vec<u8>),
    /// LZSS-compressed block image; `block_len` is the uncompressed size.
    Compressed {
        /// Uncompressed block length.
        block_len: usize,
        /// LZSS stream.
        data: Vec<u8>,
    },
    /// Zero-run-encoded PRINS parity.
    Parity(Vec<u8>),
    /// LZSS over the encoded parity (ablation mode).
    ParityCompressed {
        /// Length of the sparse-parity stream before compression.
        sparse_len: usize,
        /// LZSS stream.
        data: Vec<u8>,
    },
    /// Coefficient-tagged erasure-strip delta: apply
    /// `strip ^= coeff · Δ` over GF(256).
    StripDelta {
        /// Generator coefficient (1 for the data strip itself).
        coeff: u8,
        /// Zero-run-encoded delta, same format as [`Parity`].
        ///
        /// [`Parity`]: PayloadBody::Parity
        data: Vec<u8>,
    },
}

/// One replicated write on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Payload {
    /// Address the write applies to.
    pub lba: Lba,
    /// The strategy-specific body.
    pub body: PayloadBody,
}

/// Tags of the payload kinds (see the module docs).
const FULL_TAG: u8 = 0;
const COMPRESSED_TAG: u8 = 1;
const PARITY_TAG: u8 = 2;
const PARITY_COMPRESSED_TAG: u8 = 3;

fn write_header(out: &mut Vec<u8>, tag: u8, lba: Lba) {
    out.push(tag);
    encode_varint(out, lba.index());
}

impl Payload {
    /// Appends a [`PayloadBody::Full`] payload carrying `block` to
    /// `out`. Bytes already in `out` are left untouched, as with every
    /// writer below.
    pub fn write_full(out: &mut Vec<u8>, lba: Lba, block: &[u8]) {
        write_header(out, FULL_TAG, lba);
        out.extend_from_slice(block);
    }

    /// Appends a [`PayloadBody::Compressed`] payload: the LZSS stream
    /// `lzss` of a `block_len`-byte block.
    pub fn write_compressed(out: &mut Vec<u8>, lba: Lba, block_len: usize, lzss: &[u8]) {
        write_header(out, COMPRESSED_TAG, lba);
        encode_varint(out, block_len as u64);
        out.extend_from_slice(lzss);
    }

    /// Appends the header of a [`PayloadBody::Parity`] payload. The
    /// caller appends the sparse-parity bytes right after it (e.g. with
    /// [`SparseCodec::encode_delta_into`](prins_parity::SparseCodec::encode_delta_into)).
    pub fn write_parity_header(out: &mut Vec<u8>, lba: Lba) {
        write_header(out, PARITY_TAG, lba);
    }

    /// Appends a [`PayloadBody::ParityCompressed`] payload: the LZSS
    /// stream `lzss` of a `sparse_len`-byte sparse parity.
    pub fn write_parity_compressed(out: &mut Vec<u8>, lba: Lba, sparse_len: usize, lzss: &[u8]) {
        write_header(out, PARITY_COMPRESSED_TAG, lba);
        encode_varint(out, sparse_len as u64);
        out.extend_from_slice(lzss);
    }

    /// Appends the header of a [`PayloadBody::StripDelta`] payload. The
    /// caller appends the sparse delta bytes right after it.
    pub fn write_strip_delta_header(out: &mut Vec<u8>, lba: Lba, coeff: u8) {
        write_header(out, STRIP_DELTA_TAG, lba);
        out.push(coeff);
    }

    /// Serializes to wire bytes.
    ///
    /// This is the reference encoding the writers above are checked
    /// against; the write paths append through the writers instead.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match &self.body {
            PayloadBody::Full(data) => {
                out.push(0);
                encode_varint(&mut out, self.lba.index());
                out.extend_from_slice(data);
            }
            PayloadBody::Compressed { block_len, data } => {
                out.push(1);
                encode_varint(&mut out, self.lba.index());
                encode_varint(&mut out, *block_len as u64);
                out.extend_from_slice(data);
            }
            PayloadBody::Parity(data) => {
                out.push(2);
                encode_varint(&mut out, self.lba.index());
                out.extend_from_slice(data);
            }
            PayloadBody::ParityCompressed { sparse_len, data } => {
                out.push(3);
                encode_varint(&mut out, self.lba.index());
                encode_varint(&mut out, *sparse_len as u64);
                out.extend_from_slice(data);
            }
            PayloadBody::StripDelta { coeff, data } => {
                out.push(STRIP_DELTA_TAG);
                encode_varint(&mut out, self.lba.index());
                out.push(*coeff);
                out.extend_from_slice(data);
            }
        }
        out
    }

    /// Parses wire bytes.
    ///
    /// # Errors
    ///
    /// [`ReplError::Malformed`] on unknown tags or truncated headers.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ReplError> {
        let (&tag, rest) = bytes
            .split_first()
            .ok_or_else(|| ReplError::Malformed("empty payload".into()))?;
        let (lba, used) =
            decode_varint(rest).ok_or_else(|| ReplError::Malformed("truncated lba".into()))?;
        let rest = &rest[used..];
        let body = match tag {
            0 => PayloadBody::Full(rest.to_vec()),
            1 => {
                let (block_len, used) = decode_varint(rest)
                    .ok_or_else(|| ReplError::Malformed("truncated block_len".into()))?;
                if block_len > MAX_WIRE_LEN as u64 {
                    return Err(ReplError::Malformed(format!(
                        "block_len {block_len} exceeds budget {MAX_WIRE_LEN}"
                    )));
                }
                PayloadBody::Compressed {
                    block_len: block_len as usize,
                    data: rest[used..].to_vec(),
                }
            }
            2 => PayloadBody::Parity(rest.to_vec()),
            3 => {
                let (sparse_len, used) = decode_varint(rest)
                    .ok_or_else(|| ReplError::Malformed("truncated sparse_len".into()))?;
                if sparse_len > MAX_WIRE_LEN as u64 {
                    return Err(ReplError::Malformed(format!(
                        "sparse_len {sparse_len} exceeds budget {MAX_WIRE_LEN}"
                    )));
                }
                PayloadBody::ParityCompressed {
                    sparse_len: sparse_len as usize,
                    data: rest[used..].to_vec(),
                }
            }
            STRIP_DELTA_TAG => {
                let (&coeff, rest) = rest
                    .split_first()
                    .ok_or_else(|| ReplError::Malformed("truncated strip coefficient".into()))?;
                PayloadBody::StripDelta {
                    coeff,
                    data: rest.to_vec(),
                }
            }
            other => return Err(ReplError::Malformed(format!("unknown tag {other}"))),
        };
        Ok(Self {
            lba: Lba(lba),
            body,
        })
    }
}

/// Wire tag of a [`BatchFrame`] (the payload tags are 0–3 and 8).
pub const BATCH_TAG: u8 = 5;

/// Wire tag of a [`PayloadBody::StripDelta`] payload (6, 7 and 10 are
/// the seal, digest-request and read-request tags).
pub const STRIP_DELTA_TAG: u8 = 8;

/// Several serialized payloads packed into a single wire message.
///
/// Small PRINS parities pay one network/ack round-trip each; batching
/// amortizes that per-message cost — the replica applies every inner
/// payload in order and answers with a *single* acknowledgement.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchFrame {
    /// The packed payloads, each a serialized [`Payload`], in apply
    /// order.
    pub payloads: Vec<Vec<u8>>,
}

impl BatchFrame {
    /// Serializes the frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(8 + self.payloads.iter().map(|p| p.len() + 4).sum::<usize>());
        out.push(BATCH_TAG);
        encode_varint(&mut out, self.payloads.len() as u64);
        for p in &self.payloads {
            encode_varint(&mut out, p.len() as u64);
            out.extend_from_slice(p);
        }
        out
    }

    /// Parses a frame serialized by [`to_bytes`](Self::to_bytes).
    ///
    /// The inner payloads are *not* decoded — apply them one by one so
    /// a malformed element surfaces at its own position.
    ///
    /// # Errors
    ///
    /// [`ReplError::Malformed`] on a wrong tag, truncated length
    /// prefixes, or payloads running past the end of the message.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ReplError> {
        let (&tag, mut rest) = bytes
            .split_first()
            .ok_or_else(|| ReplError::Malformed("empty batch frame".into()))?;
        if tag != BATCH_TAG {
            return Err(ReplError::Malformed(format!(
                "batch frame tag {tag} != {BATCH_TAG}"
            )));
        }
        let (count, used) = decode_varint(rest)
            .ok_or_else(|| ReplError::Malformed("truncated batch count".into()))?;
        rest = &rest[used..];
        // An attacker-controlled count must not drive allocation; cap
        // the pre-allocation by what the message could possibly hold.
        let mut payloads = Vec::with_capacity((count as usize).min(rest.len()));
        for i in 0..count {
            let (len, used) = decode_varint(rest)
                .ok_or_else(|| ReplError::Malformed(format!("truncated length of payload {i}")))?;
            rest = &rest[used..];
            let len = len as usize;
            if len > rest.len() {
                return Err(ReplError::Malformed(format!(
                    "payload {i} length {len} exceeds remaining {}",
                    rest.len()
                )));
            }
            payloads.push(rest[..len].to_vec());
            rest = &rest[len..];
        }
        if !rest.is_empty() {
            return Err(ReplError::Malformed(format!(
                "{} trailing bytes after batch",
                rest.len()
            )));
        }
        Ok(Self { payloads })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn all_bodies_roundtrip() {
        let cases = vec![
            Payload {
                lba: Lba(0),
                body: PayloadBody::Full(vec![1, 2, 3]),
            },
            Payload {
                lba: Lba(u32::MAX as u64 + 5),
                body: PayloadBody::Compressed {
                    block_len: 8192,
                    data: vec![9; 40],
                },
            },
            Payload {
                lba: Lba(300),
                body: PayloadBody::Parity(vec![0xde, 0xad]),
            },
            Payload {
                lba: Lba(7),
                body: PayloadBody::ParityCompressed {
                    sparse_len: 77,
                    data: vec![1; 10],
                },
            },
            Payload {
                lba: Lba(42),
                body: PayloadBody::StripDelta {
                    coeff: 0x8e,
                    data: vec![3, 1, 4, 1, 5],
                },
            },
        ];
        for p in cases {
            assert_eq!(Payload::from_bytes(&p.to_bytes()).unwrap(), p);
        }
    }

    #[test]
    fn strip_delta_rejects_missing_coefficient() {
        assert!(Payload::from_bytes(&[STRIP_DELTA_TAG, 0]).is_err());
    }

    #[test]
    fn rejects_empty_and_unknown_tag() {
        assert!(Payload::from_bytes(&[]).is_err());
        // Unused tags and the batch, seal and request tags are not
        // payloads.
        for tag in [4, 5, 6, 7, 9, 10] {
            assert!(Payload::from_bytes(&[tag, 0]).is_err(), "tag {tag}");
        }
    }

    #[test]
    fn rejects_truncated_headers() {
        // tag=1 with lba but no block_len varint
        assert!(Payload::from_bytes(&[1]).is_err());
        // varint continuation byte with nothing after
        assert!(Payload::from_bytes(&[0, 0x80]).is_err());
    }

    #[test]
    fn batch_frame_roundtrips() {
        let frame = BatchFrame {
            payloads: vec![
                Payload {
                    lba: Lba(1),
                    body: PayloadBody::Parity(vec![1, 2, 3]),
                }
                .to_bytes(),
                Payload {
                    lba: Lba(900),
                    body: PayloadBody::Full(vec![0; 64]),
                }
                .to_bytes(),
                Vec::new(),
            ],
        };
        let bytes = frame.to_bytes();
        assert_eq!(bytes[0], BATCH_TAG);
        assert_eq!(BatchFrame::from_bytes(&bytes).unwrap(), frame);
        // A bare payload is not mistaken for a batch.
        let bare = Payload {
            lba: Lba(0),
            body: PayloadBody::Parity(vec![1]),
        }
        .to_bytes();
        assert!(BatchFrame::from_bytes(&bare).is_err());
    }

    #[test]
    fn batch_frame_rejects_bad_structure() {
        assert!(BatchFrame::from_bytes(&[]).is_err());
        // count says 1 but no length follows
        assert!(BatchFrame::from_bytes(&[BATCH_TAG, 1]).is_err());
        // length runs past the end
        assert!(BatchFrame::from_bytes(&[BATCH_TAG, 1, 5, 0xaa]).is_err());
        // trailing garbage after the declared payloads
        assert!(BatchFrame::from_bytes(&[BATCH_TAG, 1, 1, 0xaa, 0xbb]).is_err());
        // huge declared count must not allocate or panic
        assert!(BatchFrame::from_bytes(&[BATCH_TAG, 0xff, 0xff, 0xff, 0xff, 0x7f]).is_err());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(lba in any::<u64>(), tag in 0u8..5,
                          n in 0usize..256, data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let body = match tag {
                0 => PayloadBody::Full(data),
                1 => PayloadBody::Compressed { block_len: n, data },
                2 => PayloadBody::Parity(data),
                3 => PayloadBody::ParityCompressed { sparse_len: n, data },
                _ => PayloadBody::StripDelta { coeff: n as u8, data },
            };
            let p = Payload { lba: Lba(lba), body };
            prop_assert_eq!(Payload::from_bytes(&p.to_bytes()).unwrap(), p);
        }

        /// The append-writers produce the reference `to_bytes` encoding
        /// of every body, after whatever the buffer already holds.
        #[test]
        fn prop_writers_match_to_bytes(lba in any::<u64>(), tag in 0u8..5,
                                       n in 0usize..256, data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut got = vec![0xC3u8];
            let l = Lba(lba);
            let body = match tag {
                0 => { Payload::write_full(&mut got, l, &data); PayloadBody::Full(data) }
                1 => { Payload::write_compressed(&mut got, l, n, &data); PayloadBody::Compressed { block_len: n, data } }
                2 => { Payload::write_parity_header(&mut got, l); got.extend_from_slice(&data); PayloadBody::Parity(data) }
                3 => { Payload::write_parity_compressed(&mut got, l, n, &data); PayloadBody::ParityCompressed { sparse_len: n, data } }
                _ => { Payload::write_strip_delta_header(&mut got, l, n as u8); got.extend_from_slice(&data); PayloadBody::StripDelta { coeff: n as u8, data } }
            };
            prop_assert_eq!(got[0], 0xC3);
            let want = Payload { lba: l, body }.to_bytes();
            prop_assert_eq!(&got[1..], want.as_slice());
        }

        /// Arbitrary bytes must decode to `Ok` or `Err` — never panic.
        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = Payload::from_bytes(&bytes);
        }

        /// Every strict prefix of a valid encoding either still parses
        /// (trailing data is body bytes) or errors cleanly — no panics
        /// on truncation.
        #[test]
        fn prop_truncation_never_panics(lba in any::<u64>(), tag in 0u8..5,
                                        cut in 0usize..64,
                                        data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let body = match tag {
                0 => PayloadBody::Full(data),
                1 => PayloadBody::Compressed { block_len: data.len(), data },
                2 => PayloadBody::Parity(data),
                3 => PayloadBody::ParityCompressed { sparse_len: data.len(), data },
                _ => PayloadBody::StripDelta { coeff: 1, data },
            };
            let wire = Payload { lba: Lba(lba), body }.to_bytes();
            let keep = wire.len().saturating_sub(cut);
            let _ = Payload::from_bytes(&wire[..keep]);
        }

        /// Batch frames round-trip through encode/decode for arbitrary
        /// packed payload bytes.
        #[test]
        fn prop_batch_roundtrip(payloads in proptest::collection::vec(
                                    proptest::collection::vec(any::<u8>(), 0..64), 0..12)) {
            let frame = BatchFrame { payloads };
            let back = BatchFrame::from_bytes(&frame.to_bytes()).unwrap();
            prop_assert_eq!(back, frame);
        }

        /// Every truncation of a valid batch frame is rejected cleanly —
        /// never a panic, and never a silent partial decode.
        #[test]
        fn prop_batch_truncation_rejected(payloads in proptest::collection::vec(
                                              proptest::collection::vec(any::<u8>(), 0..32), 1..8),
                                          cut in 1usize..64) {
            let wire = BatchFrame { payloads }.to_bytes();
            let keep = wire.len().saturating_sub(cut.min(wire.len() - 1)); // keep >= 1 (the tag)
            if keep < wire.len() {
                prop_assert!(BatchFrame::from_bytes(&wire[..keep]).is_err());
            }
        }

        /// Arbitrary bytes never panic the batch decoder.
        #[test]
        fn prop_batch_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = BatchFrame::from_bytes(&bytes);
        }
    }
}
