//! The replica wire grammar: sealed frames in, status-tagged answers
//! out.
//!
//! PRINS's backward parity computation `A_new = P' ⊕ A_old` silently
//! fabricates garbage if either side of the XOR is wrong, so the wire
//! format cannot rely on TCP's checksum alone (it is too weak and it
//! ends at the NIC, not at the disk). Every frame a replica accepts is
//! wrapped in a *seal*, and there is no other frame shape:
//!
//! ```text
//! frame  := seal(epoch, body)
//! seal   := tag(6) varint(epoch) crc32c(u32 LE) body
//! body   := batch(payload+) | payload | digest-req | read-req
//! batch  := tag(5) varint(count) { varint(len) payload }*count
//! digest-req := tag(7) varint(lba)
//! read-req   := tag(10) varint(lba)
//! answer := status(u8) varint(epoch) [digest | crc image]
//! ```
//!
//! `payload` is a single replicated write (see [`crate::Payload`]); a
//! batch holds plain payloads only, never another batch or a request.
//!
//! * **epoch** — the primary's view of the replica's connection
//!   generation. It is bumped every time the replica goes offline or
//!   rejoins, and the replica echoes the epoch of the last sealed frame
//!   it received in every answer. That makes stale in-flight answers
//!   from before a rejoin *identifiable* instead of guessable.
//! * **crc32c** — covers the epoch and the entire body. Verified before
//!   the body is even parsed; a failed check, or a frame that does not
//!   start with the seal tag at all, is [`ReplError::ChecksumMismatch`],
//!   answered with [`NAK_CORRUPT`] so the sender retransmits instead of
//!   tearing the link down.
//!
//! The answer's status is [`ACK`], [`NAK`] or [`NAK_CORRUPT`] for a
//! write; a digest request is answered by [`DIGEST_ACK`] with the
//! CRC32C of the block *as read back from the replica's disk* (what lets
//! the primary detect replica-side media corruption no wire checksum
//! can see), a read request by [`READ_ACK`] with the block's
//! CRC-protected zero-run-encoded image.

use prins_block::{crc32c, crc32c_append, Lba};
use prins_parity::{decode_varint, encode_varint};

use crate::{Applied, ReplError};

/// Acknowledgement byte a replica returns after applying a payload.
pub const ACK: u8 = 0x06;
/// Negative acknowledgement (apply failed).
pub const NAK: u8 = 0x15;

/// Wire tag of a sealed envelope (payload tags are 0–3 and 8, batch
/// is 5).
pub const SEAL_TAG: u8 = 6;
/// Wire tag of a scrub digest request.
pub const DIGEST_REQ_TAG: u8 = 7;
/// Wire tag of a block read request: an offloaded read or a rebuild's
/// strip read.
pub const READ_REQ_TAG: u8 = 10;
/// Acknowledgement status: frame failed its integrity check; the sender
/// should retransmit (the frame was damaged in flight, not rejected).
pub const NAK_CORRUPT: u8 = 0x18;
/// Acknowledgement status of a digest response (carries a CRC32C).
pub const DIGEST_ACK: u8 = 0x19;
/// Acknowledgement status of a read response (carries the block image,
/// zero-run encoded).
pub const READ_ACK: u8 = 0x1b;

fn seal_crc(epoch: u64, inner: &[u8]) -> u32 {
    crc32c_append(crc32c(&epoch.to_le_bytes()), inner)
}

/// Wraps `inner` in a sealed envelope tagged with `epoch`.
///
/// The reference encoding of the envelope: the write paths seal into
/// reused buffers with [`seal_frame_into`] and
/// [`seal_batch_frame_into`], which are checked against it.
pub fn seal_frame(epoch: u64, inner: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(inner.len() + 16);
    out.push(SEAL_TAG);
    encode_varint(&mut out, epoch);
    out.extend_from_slice(&seal_crc(epoch, inner).to_le_bytes());
    out.extend_from_slice(inner);
    out
}

/// An open sealed envelope being written directly into a caller-owned
/// buffer (e.g. a pooled wire buffer): [`seal_begin`] writes the header
/// and reserves the checksum slot, the caller appends the inner frame,
/// and [`finish`](SealWriter::finish) runs **one** CRC32C pass over
/// whatever was appended and patches the slot.
///
/// This is how the sender lanes build batch frames without
/// materializing the inner frame separately: the envelope, the batch
/// header and every payload are appended to a single buffer, and the
/// whole inner region is checksummed in one slicing-by-8 sweep. The
/// bytes produced are identical to
/// `seal_frame(epoch, &BatchFrame { .. }.to_bytes())`.
#[must_use = "a SealWriter must be finished to patch the checksum in"]
pub struct SealWriter {
    epoch: u64,
    crc_at: usize,
    inner_start: usize,
}

/// Starts a sealed envelope at the end of `out`: appends the tag and
/// epoch, reserves the 4-byte checksum slot and returns the writer that
/// patches it. Bytes already in `out` are left untouched.
pub fn seal_begin(epoch: u64, out: &mut Vec<u8>) -> SealWriter {
    out.push(SEAL_TAG);
    encode_varint(out, epoch);
    let crc_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    SealWriter {
        epoch,
        crc_at,
        inner_start: crc_at + 4,
    }
}

impl SealWriter {
    /// Checksums everything appended to `out` since [`seal_begin`] and
    /// patches it into the reserved slot.
    ///
    /// # Panics
    ///
    /// Panics if `out` was truncated below the envelope header since
    /// [`seal_begin`] — the envelope this writer refers to is gone.
    pub fn finish(self, out: &mut [u8]) {
        assert!(
            out.len() >= self.inner_start,
            "sealed buffer truncated under an open SealWriter"
        );
        let crc = seal_crc(self.epoch, &out[self.inner_start..]);
        out[self.crc_at..self.crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    }
}

/// [`seal_frame`] writing into a caller-owned buffer (appended; earlier
/// bytes are untouched). Byte-identical to `seal_frame(epoch, inner)`.
pub fn seal_frame_into(epoch: u64, inner: &[u8], out: &mut Vec<u8>) {
    let writer = seal_begin(epoch, out);
    out.extend_from_slice(inner);
    writer.finish(out);
}

/// Seals a batch of serialized payloads in one pass: builds the
/// [`BatchFrame`](crate::BatchFrame) body directly inside the envelope
/// (no intermediate frame buffer, no per-payload re-copy) and covers it
/// with a single CRC32C sweep. Byte-identical to
/// `seal_frame(epoch, &BatchFrame { payloads }.to_bytes())`.
pub fn seal_batch_frame_into<P: AsRef<[u8]>>(epoch: u64, payloads: &[P], out: &mut Vec<u8>) {
    let writer = seal_begin(epoch, out);
    out.push(crate::BATCH_TAG);
    encode_varint(out, payloads.len() as u64);
    for p in payloads {
        let p = p.as_ref();
        encode_varint(out, p.len() as u64);
        out.extend_from_slice(p);
    }
    writer.finish(out);
}

/// Opens a sealed envelope, returning `(epoch, inner-frame)`.
///
/// # Errors
///
/// * [`ReplError::ChecksumMismatch`] if the frame does not start with
///   [`SEAL_TAG`] or the CRC32C does not cover the bytes received — the
///   frame was corrupted in flight (or was never sealed),
/// * [`ReplError::Malformed`] if the envelope header is truncated.
pub fn open_frame(bytes: &[u8]) -> Result<(u64, &[u8]), ReplError> {
    let Some((&SEAL_TAG, rest)) = bytes.split_first() else {
        return Err(ReplError::ChecksumMismatch {
            expected: 0,
            got: crc32c(bytes),
        });
    };
    let (epoch, used) =
        decode_varint(rest).ok_or_else(|| ReplError::Malformed("truncated seal epoch".into()))?;
    let rest = &rest[used..];
    if rest.len() < 4 {
        return Err(ReplError::Malformed("truncated seal checksum".into()));
    }
    let expected = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
    let inner = &rest[4..];
    let got = seal_crc(epoch, inner);
    if got != expected {
        return Err(ReplError::ChecksumMismatch { expected, got });
    }
    Ok((epoch, inner))
}

/// A decoded acknowledgement frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct AckFrame {
    /// [`ACK`], [`NAK`], [`NAK_CORRUPT`] or [`DIGEST_ACK`].
    status: u8,
    /// Epoch of the last sealed frame the replica received (0 when the
    /// replica has never opened a seal).
    epoch: u64,
    /// Block digest, present only for [`DIGEST_ACK`] responses.
    digest: Option<u32>,
}

/// Encodes an epoch-tagged acknowledgement (`status` + varint epoch).
pub fn encode_ack(status: u8, epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(11);
    out.push(status);
    encode_varint(&mut out, epoch);
    out
}

/// Encodes a digest response: the CRC32C of a block as read from the
/// replica's own disk.
fn encode_digest_ack(epoch: u64, digest: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(15);
    out.push(DIGEST_ACK);
    encode_varint(&mut out, epoch);
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

/// Decodes an epoch-tagged status or a digest response.
///
/// # Errors
///
/// [`ReplError::Malformed`] on empty frames, unknown status bytes, or
/// truncated epoch/digest fields.
fn decode_ack(bytes: &[u8]) -> Result<AckFrame, ReplError> {
    let (&status, rest) = bytes
        .split_first()
        .ok_or_else(|| ReplError::Malformed("empty ack frame".into()))?;
    if !matches!(status, ACK | NAK | NAK_CORRUPT | DIGEST_ACK) {
        return Err(ReplError::Malformed(format!(
            "unknown ack status {status:#04x}"
        )));
    }
    let (epoch, used) =
        decode_varint(rest).ok_or_else(|| ReplError::Malformed("truncated ack epoch".into()))?;
    let rest = &rest[used..];
    let digest = if status == DIGEST_ACK {
        if rest.len() != 4 {
            return Err(ReplError::Malformed("truncated digest".into()));
        }
        Some(u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]))
    } else {
        if !rest.is_empty() {
            return Err(ReplError::Malformed(format!(
                "{} trailing bytes after ack",
                rest.len()
            )));
        }
        None
    };
    Ok(AckFrame {
        status,
        epoch,
        digest,
    })
}

/// `tag varint(lba)` — the shape of every request frame.
fn encode_request(tag: u8, lba: Lba) -> Vec<u8> {
    let mut out = Vec::with_capacity(11);
    out.push(tag);
    encode_varint(&mut out, lba.index());
    out
}

fn decode_request(tag: u8, kind: &str, bytes: &[u8]) -> Result<Lba, ReplError> {
    let (&got, rest) = bytes
        .split_first()
        .ok_or_else(|| ReplError::Malformed(format!("empty {kind} request")))?;
    if got != tag {
        return Err(ReplError::Malformed(format!(
            "{kind} request tag {got} != {tag}"
        )));
    }
    let (lba, used) = decode_varint(rest)
        .ok_or_else(|| ReplError::Malformed(format!("truncated {kind} request lba")))?;
    if used != rest.len() {
        return Err(ReplError::Malformed(format!(
            "trailing bytes after {kind} request"
        )));
    }
    Ok(Lba(lba))
}

/// Encodes a scrub digest request for `lba`.
pub fn encode_digest_request(lba: Lba) -> Vec<u8> {
    encode_request(DIGEST_REQ_TAG, lba)
}

/// Decodes a digest request, returning the probed LBA.
///
/// # Errors
///
/// [`ReplError::Malformed`] on a wrong tag, truncated varint, or
/// trailing bytes.
pub fn decode_digest_request(bytes: &[u8]) -> Result<Lba, ReplError> {
    decode_request(DIGEST_REQ_TAG, "digest", bytes)
}

/// Encodes a block read request for `lba`.
///
/// A primary asks an in-sync replica for the current image of a block
/// so reads scale out across the replica set, and an erasure-coded
/// group asks a survivor for its strip to rebuild a lost node. Always
/// sent sealed — the epoch the replica echoes back in its [`READ_ACK`]
/// is what lets the primary reject answers computed before a rejoin.
pub fn encode_read_request(lba: Lba) -> Vec<u8> {
    encode_request(READ_REQ_TAG, lba)
}

/// Decodes a read request, returning the requested block.
///
/// # Errors
///
/// As [`decode_digest_request`].
pub fn decode_read_request(bytes: &[u8]) -> Result<Lba, ReplError> {
    decode_request(READ_REQ_TAG, "read", bytes)
}

/// Encodes a read response: the zero-run-encoded block image as read
/// from the replica's disk, CRC-protected like a sealed frame so
/// neither a served read nor a rebuild ever decodes an image damaged in
/// flight.
///
/// ```text
/// read-ack := status(0x1b) varint(epoch) crc32c(u32 LE) sparse-bytes
/// ```
fn encode_image_ack(epoch: u64, sparse: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(sparse.len() + 16);
    out.push(READ_ACK);
    encode_varint(&mut out, epoch);
    out.extend_from_slice(&seal_crc(epoch, sparse).to_le_bytes());
    out.extend_from_slice(sparse);
    out
}

/// Decodes a read response, returning `(epoch, sparse-bytes)`.
///
/// # Errors
///
/// [`ReplError::Malformed`] on structure errors;
/// [`ReplError::ChecksumMismatch`] if the image was damaged in flight.
fn decode_image_ack(bytes: &[u8]) -> Result<(u64, &[u8]), ReplError> {
    let rest = bytes
        .get(1..)
        .ok_or_else(|| ReplError::Malformed("empty image ack".into()))?;
    let (epoch, used) = decode_varint(rest)
        .ok_or_else(|| ReplError::Malformed("truncated image ack epoch".into()))?;
    let rest = &rest[used..];
    if rest.len() < 4 {
        return Err(ReplError::Malformed("truncated image ack checksum".into()));
    }
    let expected = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
    let sparse = &rest[4..];
    let got = seal_crc(epoch, sparse);
    if got != expected {
        return Err(ReplError::ChecksumMismatch { expected, got });
    }
    Ok((epoch, sparse))
}

/// The answer frame a replica sends back for one incoming frame, given
/// what [`ReplicaApplier::handle`](crate::ReplicaApplier::handle) made
/// of it and the epoch to echo
/// ([`ReplicaApplier::last_epoch`](crate::ReplicaApplier::last_epoch)).
///
/// A frame that failed its integrity check is answered with
/// [`NAK_CORRUPT`] so the sender retransmits; any other failure with
/// [`NAK`].
pub fn encode_response(outcome: &Result<Applied, ReplError>, epoch: u64) -> Vec<u8> {
    match outcome {
        Ok(Applied::Data) => encode_ack(ACK, epoch),
        Ok(Applied::Digest(digest)) => encode_digest_ack(epoch, *digest),
        Ok(Applied::Read(sparse)) => encode_image_ack(epoch, sparse),
        Err(ReplError::ChecksumMismatch { .. }) => encode_ack(NAK_CORRUPT, epoch),
        Err(_) => encode_ack(NAK, epoch),
    }
}

/// A replica's answer, as sorted by [`classify_response`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Response<'a> {
    /// The frame was applied ([`ACK`]).
    Ack,
    /// A scrub digest: the CRC32C of the probed block as read from the
    /// replica's disk ([`DIGEST_ACK`]).
    Digest(u32),
    /// The zero-run-encoded block image answering a read request
    /// ([`READ_ACK`]).
    Read(&'a [u8]),
    /// An answer from an epoch older than the frame being collected: it
    /// belongs to a frame already booked as failed. Drop it and wait
    /// for the next one.
    Stale,
}

/// Decodes one response frame from replica `replica` and matches it to
/// the frame it answers, which was sealed under `min_epoch`.
///
/// An answer carrying an older epoch is [`Response::Stale`] — except a
/// [`NAK_CORRUPT`]: a corrupted frame cannot echo the epoch it was
/// sealed under (the tag was destroyed in flight), so the replica
/// answers with whatever epoch it last saw. Exempting it is the
/// conservative choice: a genuinely stale corrupt NAK at worst marks
/// one in-flight frame uncertain, while dropping a current one would
/// shift FIFO credit onto the *next* answer and silently credit the
/// rejected frame. Callers that filter no epochs pass `min_epoch = 0`.
///
/// # Errors
///
/// * [`ReplError::Nak`] for a current [`NAK`],
/// * [`ReplError::ChecksumMismatch`] for a [`NAK_CORRUPT`] or an image
///   answer damaged in flight,
/// * [`ReplError::Malformed`] for a structurally broken image answer,
/// * [`ReplError::MissingAck`] for anything else, carrying the first
///   byte of the frame.
pub fn classify_response(
    frame: &[u8],
    replica: usize,
    min_epoch: u64,
) -> Result<Response<'_>, ReplError> {
    let (epoch, answer) = match frame.first() {
        Some(&READ_ACK) => {
            let (epoch, image) = decode_image_ack(frame)?;
            (epoch, Ok(Response::Read(image)))
        }
        first => {
            let garbage = || ReplError::MissingAck {
                replica,
                got: first.copied(),
            };
            let ack = decode_ack(frame).map_err(|_| garbage())?;
            let answer = match (ack.status, ack.digest) {
                (NAK_CORRUPT, _) => {
                    return Err(ReplError::ChecksumMismatch {
                        expected: 0,
                        got: 0,
                    })
                }
                (ACK, _) => Ok(Response::Ack),
                (NAK, _) => Err(ReplError::Nak { replica }),
                (_, Some(digest)) => Ok(Response::Digest(digest)),
                _ => Err(garbage()),
            };
            (ack.epoch, answer)
        }
    };
    if epoch < min_epoch {
        return Ok(Response::Stale);
    }
    answer
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn seal_roundtrips() {
        for epoch in [0u64, 1, 127, 128, u64::MAX] {
            let inner = vec![1u8, 2, 3, 4, 5];
            let sealed = seal_frame(epoch, &inner);
            assert_eq!(sealed[0], SEAL_TAG);
            let (e, i) = open_frame(&sealed).unwrap();
            assert_eq!((e, i), (epoch, inner.as_slice()));
        }
    }

    #[test]
    fn open_rejects_structure_and_corruption() {
        // A frame that does not start as a seal is in-flight damage (or
        // was never sealed): answered NAK_CORRUPT, never parsed.
        for unsealed in [&[][..], &[0, 1, 2], &[4, 0]] {
            assert!(matches!(
                open_frame(unsealed),
                Err(ReplError::ChecksumMismatch { .. })
            ));
        }
        assert!(open_frame(&[SEAL_TAG]).is_err());
        assert!(open_frame(&[SEAL_TAG, 0x80]).is_err()); // dangling varint
        assert!(open_frame(&[SEAL_TAG, 0, 1, 2]).is_err()); // short crc
        let mut sealed = seal_frame(3, b"payload");
        let last = sealed.len() - 1;
        sealed[last] ^= 0x01;
        assert!(matches!(
            open_frame(&sealed),
            Err(ReplError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn seal_frame_into_appends_and_matches_seal_frame() {
        let mut out = vec![0xEEu8; 3]; // pre-existing bytes must survive
        seal_frame_into(9, b"inner bytes", &mut out);
        assert_eq!(&out[..3], &[0xEE; 3]);
        assert_eq!(&out[3..], seal_frame(9, b"inner bytes").as_slice());
    }

    #[test]
    fn batch_seal_is_byte_identical_to_frame_then_seal() {
        let payloads: Vec<Vec<u8>> = vec![vec![1, 2, 3], Vec::new(), vec![0xab; 300]];
        let expected = seal_frame(
            4,
            &crate::BatchFrame {
                payloads: payloads.clone(),
            }
            .to_bytes(),
        );
        let mut got = Vec::new();
        seal_batch_frame_into(4, &payloads, &mut got);
        assert_eq!(got, expected);
    }

    #[test]
    #[should_panic(expected = "truncated under an open SealWriter")]
    fn finish_rejects_truncated_buffer() {
        let mut out = Vec::new();
        let writer = seal_begin(1, &mut out);
        out.clear();
        writer.finish(&mut out);
    }

    #[test]
    fn acks_roundtrip_in_all_shapes() {
        for (status, epoch) in [(ACK, 0u64), (ACK, 9), (NAK, 3), (NAK_CORRUPT, 1 << 40)] {
            let frame = encode_ack(status, epoch);
            assert_eq!(
                decode_ack(&frame).unwrap(),
                AckFrame {
                    status,
                    epoch,
                    digest: None
                }
            );
        }
        let digest = encode_digest_ack(7, 0xdead_beef);
        assert_eq!(
            decode_ack(&digest).unwrap(),
            AckFrame {
                status: DIGEST_ACK,
                epoch: 7,
                digest: Some(0xdead_beef)
            }
        );
    }

    #[test]
    fn decode_ack_rejects_garbage() {
        assert!(decode_ack(&[]).is_err());
        assert!(decode_ack(&[0x7f]).is_err());
        // Every status carries an epoch; a bare status byte is garbage.
        assert!(decode_ack(&[ACK]).is_err());
        assert!(decode_ack(&[NAK]).is_err());
        assert!(decode_ack(&[NAK_CORRUPT]).is_err());
        assert!(decode_ack(&[ACK, 0x80]).is_err()); // dangling varint
        assert!(decode_ack(&[ACK, 0, 9]).is_err()); // trailing byte
        assert!(decode_ack(&[DIGEST_ACK, 0, 1, 2]).is_err()); // short digest
    }

    #[test]
    fn digest_request_roundtrips() {
        let req = encode_digest_request(Lba(12345));
        assert_eq!(decode_digest_request(&req).unwrap(), Lba(12345));
        assert!(decode_digest_request(&[DIGEST_REQ_TAG]).is_err());
        assert!(decode_digest_request(&[DIGEST_REQ_TAG, 0, 0]).is_err());
        assert!(decode_digest_request(&[0, 0]).is_err());
    }

    #[test]
    fn read_request_roundtrips() {
        let req = encode_read_request(Lba(4321));
        assert!(decode_digest_request(&req).is_err());
        assert_eq!(decode_read_request(&req).unwrap(), Lba(4321));
        assert!(decode_read_request(&[READ_REQ_TAG]).is_err());
        assert!(decode_read_request(&[READ_REQ_TAG, 0, 0]).is_err());
        assert!(decode_read_request(&[0, 0]).is_err());
    }

    /// One row per answer shape: what the classifier makes of it when
    /// the frame it answers was sealed under epoch 5.
    #[test]
    fn classifier_sorts_every_answer_shape() {
        use Response::{Ack, Digest, Read, Stale};
        let image = encode_image_ack(5, b"block");
        let mut damaged = image.clone();
        let last = damaged.len() - 1;
        damaged[last] ^= 0x40;
        let ok = |r: Response<'static>| -> Result<Response<'static>, &str> { Ok(r) };
        let rows: Vec<(&str, Vec<u8>, Result<Response, &str>)> = vec![
            ("current ack", encode_ack(ACK, 5), ok(Ack)),
            ("newer ack", encode_ack(ACK, 6), ok(Ack)),
            ("stale ack", encode_ack(ACK, 4), ok(Stale)),
            ("bare status byte", vec![ACK], Err("garbage ack")),
            ("current nak", encode_ack(NAK, 5), Err("nak")),
            ("stale nak", encode_ack(NAK, 4), ok(Stale)),
            (
                "current corrupt nak",
                encode_ack(NAK_CORRUPT, 5),
                Err("checksum"),
            ),
            (
                "stale corrupt nak",
                encode_ack(NAK_CORRUPT, 1),
                Err("checksum"),
            ),
            ("garbage byte", vec![0x7f], Err("garbage 0x7f")),
            ("empty frame", vec![], Err("garbage none")),
            (
                "digest",
                encode_digest_ack(5, 0xdead_beef),
                ok(Digest(0xdead_beef)),
            ),
            ("stale digest", encode_digest_ack(2, 1), ok(Stale)),
            ("read", image.clone(), ok(Read(b"block"))),
            ("stale read", encode_image_ack(4, b"old"), ok(Stale)),
            ("damaged read", damaged, Err("checksum")),
            ("truncated read", vec![READ_ACK, 5, 1, 2], Err("malformed")),
        ];
        for (name, frame, want) in rows {
            let got = classify_response(&frame, 3, 5).map_err(|e| match e {
                ReplError::Nak { replica: 3 } => "nak",
                ReplError::ChecksumMismatch { .. } => "checksum",
                ReplError::MissingAck {
                    replica: 3,
                    got: Some(0x7f),
                } => "garbage 0x7f",
                ReplError::MissingAck {
                    replica: 3,
                    got: Some(ACK),
                } => "garbage ack",
                ReplError::MissingAck {
                    replica: 3,
                    got: None,
                } => "garbage none",
                ReplError::Malformed(_) => "malformed",
                other => panic!("{name}: unexpected {other}"),
            });
            assert_eq!(got, want, "{name}");
        }
        // Without an epoch filter nothing is stale.
        assert_eq!(
            classify_response(&encode_ack(ACK, 0), 0, 0).unwrap(),
            Response::Ack
        );
    }

    #[test]
    fn responses_answer_every_outcome() {
        let rows: Vec<(Result<Applied, ReplError>, Vec<u8>)> = vec![
            (Ok(Applied::Data), encode_ack(ACK, 9)),
            (Ok(Applied::Digest(42)), encode_digest_ack(9, 42)),
            (Ok(Applied::Read(b"r".to_vec())), encode_image_ack(9, b"r")),
            (
                Err(ReplError::ChecksumMismatch {
                    expected: 1,
                    got: 2,
                }),
                encode_ack(NAK_CORRUPT, 9),
            ),
            (Err(ReplError::Malformed("x".into())), encode_ack(NAK, 9)),
        ];
        for (outcome, want) in rows {
            assert_eq!(encode_response(&outcome, 9), want, "{outcome:?}");
        }
    }

    proptest! {
        /// Sealed frames round-trip for arbitrary epochs and inner bytes.
        #[test]
        fn prop_seal_roundtrip(epoch in any::<u64>(),
                               inner in proptest::collection::vec(any::<u8>(), 0..512)) {
            let sealed = seal_frame(epoch, &inner);
            let (e, i) = open_frame(&sealed).unwrap();
            prop_assert_eq!(e, epoch);
            prop_assert_eq!(i, inner.as_slice());
        }

        /// Any single-bit flip anywhere in a sealed frame is rejected —
        /// it never opens successfully, so corruption cannot be applied.
        #[test]
        fn prop_any_single_bit_flip_is_rejected(
                epoch in any::<u64>(),
                inner in proptest::collection::vec(any::<u8>(), 0..128),
                byte in any::<prop::sample::Index>(),
                bit in 0u8..8) {
            let mut sealed = seal_frame(epoch, &inner);
            let at = byte.index(sealed.len());
            sealed[at] ^= 1 << bit;
            prop_assert!(open_frame(&sealed).is_err());
        }

        /// Arbitrary bytes never panic the openers/decoders.
        #[test]
        fn prop_decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = open_frame(&bytes);
            let _ = decode_ack(&bytes);
            let _ = decode_digest_request(&bytes);
            let _ = decode_read_request(&bytes);
            let _ = decode_image_ack(&bytes);
            let _ = classify_response(&bytes, 0, 1);
        }

        /// The in-place builder produces the exact bytes of the
        /// allocate-then-seal path for any epoch and inner frame.
        #[test]
        fn prop_seal_frame_into_is_byte_identical(
                epoch in any::<u64>(),
                inner in proptest::collection::vec(any::<u8>(), 0..512)) {
            let mut got = Vec::new();
            seal_frame_into(epoch, &inner, &mut got);
            prop_assert_eq!(got, seal_frame(epoch, &inner));
        }

        /// Batch-aware sealing (single buffer, single CRC sweep) is
        /// byte-identical to building the batch frame and sealing it —
        /// so the read side needs no changes at all.
        #[test]
        fn prop_batch_seal_is_byte_identical(
                epoch in any::<u64>(),
                payloads in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 0..128), 0..10)) {
            let expected = seal_frame(
                epoch,
                &crate::BatchFrame { payloads: payloads.clone() }.to_bytes(),
            );
            let mut got = Vec::new();
            seal_batch_frame_into(epoch, &payloads, &mut got);
            prop_assert_eq!(&got, &expected);
            // And it opens to the same batch.
            let (e, inner) = open_frame(&got).unwrap();
            prop_assert_eq!(e, epoch);
            prop_assert_eq!(crate::BatchFrame::from_bytes(inner).unwrap().payloads, payloads);
        }
    }
}
