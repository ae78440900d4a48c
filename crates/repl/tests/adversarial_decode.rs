#![recursion_limit = "1024"]
//! Adversarial wire-decode corpus.
//!
//! The replica parses frames a hostile peer controls byte for byte.
//! These tests pin the decode-side hardening:
//!
//! * oversized length claims (`block_len`, `sparse_len`, batch counts,
//!   LZSS `expected_len`) are rejected at parse time, before any
//!   allocator sees them;
//! * truncated LZSS streams fail cleanly through the full apply path;
//! * a frame that is not sealed is rejected before anything parses it;
//! * a counting allocator proves decoding arbitrary bytes never makes a
//!   single allocation beyond the wire budget (plus `Vec` growth
//!   doubling slack) — no matter what the frame claims.
//!
//! Kept in its own test binary because of the global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use prins_block::{BlockSize, MemDevice};
use prins_parity::encode_varint;
use prins_repl::{
    seal_frame, Applied, BatchFrame, Payload, PayloadBody, ReplError, ReplicaApplier, MAX_WIRE_LEN,
};
use proptest::prelude::*;

struct MaxAlloc;

static WATCHING: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if WATCHING.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for MaxAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: MaxAlloc = MaxAlloc;

/// A frame of `tag`, an LBA, then raw `body` bytes.
fn frame(tag: u8, body: &[u8]) -> Vec<u8> {
    let mut out = vec![tag];
    encode_varint(&mut out, 3); // lba
    out.extend_from_slice(body);
    out
}

/// A frame whose body starts with a length varint claiming `claim`.
fn frame_with_claim(tag: u8, claim: u64, data: &[u8]) -> Vec<u8> {
    let mut out = vec![tag];
    encode_varint(&mut out, 3);
    encode_varint(&mut out, claim);
    out.extend_from_slice(data);
    out
}

#[test]
fn oversized_length_claims_are_rejected_per_tag() {
    let huge = (MAX_WIRE_LEN as u64) + 1;
    // Tag 1 (Compressed): block_len over budget.
    let r = Payload::from_bytes(&frame_with_claim(1, huge, &[0x02, 0xaa]));
    assert!(matches!(r, Err(ReplError::Malformed(_))), "{r:?}");
    // Tag 3 (ParityCompressed): sparse_len over budget.
    let r = Payload::from_bytes(&frame_with_claim(3, huge, &[0x02, 0xaa]));
    assert!(matches!(r, Err(ReplError::Malformed(_))), "{r:?}");
    // u64::MAX claims must not wrap into small usize values.
    for tag in [1u8, 3] {
        assert!(Payload::from_bytes(&frame_with_claim(tag, u64::MAX, &[])).is_err());
    }
    // The largest in-budget claim still parses (the decompressor then
    // enforces it against the actual stream).
    for tag in [1u8, 3] {
        let p = Payload::from_bytes(&frame_with_claim(tag, MAX_WIRE_LEN as u64, &[0x02, 0xaa]));
        assert!(p.is_ok(), "{p:?}");
    }
    // Tags without a length varint still decode arbitrary bodies without
    // trusting any claim (bodies are bounded by the message itself).
    for tag in [0u8, 2] {
        assert!(Payload::from_bytes(&frame(tag, &[0xff; 32])).is_ok());
    }
    assert!(Payload::from_bytes(&frame(8, &[1, 0xff, 0xff])).is_ok());
    // Batch (tag 5): a giant count with no payloads behind it.
    let mut batch = vec![5u8];
    encode_varint(&mut batch, u64::MAX / 2);
    assert!(BatchFrame::from_bytes(&batch).is_err());
}

#[test]
fn truncated_lzss_streams_fail_cleanly_through_apply() {
    use prins_compress::{Codec, Lzss};
    let device = MemDevice::new(BlockSize::kb4(), 4);
    let mut applier = ReplicaApplier::new(&device);

    let block: Vec<u8> = (0..4096u32).map(|i| (i / 7) as u8).collect();
    let packed = Lzss::fast().compress(&block);
    let whole = Payload {
        lba: prins_block::Lba(1),
        body: PayloadBody::Compressed {
            block_len: 4096,
            data: packed.clone(),
        },
    }
    .to_bytes();
    assert_eq!(
        applier.handle(&seal_frame(1, &whole)).unwrap(),
        Applied::Data
    );

    // Every proper prefix of the compressed stream must be rejected
    // (Compress or Malformed), never applied and never a panic.
    for cut in 0..packed.len() {
        let hostile = Payload {
            lba: prins_block::Lba(2),
            body: PayloadBody::Compressed {
                block_len: 4096,
                data: packed[..cut].to_vec(),
            },
        }
        .to_bytes();
        assert!(
            applier.handle(&seal_frame(1, &hostile)).is_err(),
            "cut={cut}"
        );
    }
    // Same through the ParityCompressed arm: claim a sparse_len the
    // truncated stream cannot produce.
    for cut in [0, 1, packed.len() / 2] {
        let hostile = Payload {
            lba: prins_block::Lba(2),
            body: PayloadBody::ParityCompressed {
                sparse_len: 4096,
                data: packed[..cut].to_vec(),
            },
        }
        .to_bytes();
        assert!(
            applier.handle(&seal_frame(1, &hostile)).is_err(),
            "cut={cut}"
        );
    }
    assert_eq!(applier.applied(), 1, "no hostile frame may apply");
}

#[test]
fn unsealed_frames_are_rejected_before_parsing() {
    let device = MemDevice::new(BlockSize::kb4(), 4);
    let mut applier = ReplicaApplier::new(&device);
    let write = Payload {
        lba: prins_block::Lba(1),
        body: PayloadBody::Full(vec![7; 4096]),
    }
    .to_bytes();
    let batch = BatchFrame {
        payloads: vec![write.clone()],
    }
    .to_bytes();
    for bare in [write, batch, frame_with_claim(1, u64::MAX, &[]), Vec::new()] {
        assert!(matches!(
            applier.handle(&bare),
            Err(ReplError::ChecksumMismatch { .. })
        ));
    }
    assert_eq!(applier.applied(), 0);
    assert_eq!(applier.last_epoch(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decoding arbitrary bytes — bare payload, batch, and the full
    /// sealed apply path including LZSS — never allocates a single buffer
    /// beyond the wire budget. `Vec` doubles its capacity while
    /// growing, so the observable bound is 2x the budget; the point is
    /// that a 16-byte frame claiming 4 GB allocates nothing of the
    /// sort.
    #[test]
    fn prop_decode_allocations_stay_under_the_wire_budget(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        tag in 0u8..11,
        claim in any::<u64>(),
    ) {
        let device = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&device);
        let claimed = frame_with_claim(tag % 6, claim, &bytes);
        let sealed = seal_frame(1, &bytes);
        let sealed_claim = seal_frame(1, &claimed);
        let mut tagged = bytes.clone();
        if let Some(first) = tagged.first_mut() {
            *first = tag; // retry with every dispatchable tag byte
        }
        let sealed_tagged = seal_frame(1, &tagged);

        LARGEST.store(0, Ordering::SeqCst);
        WATCHING.store(true, Ordering::SeqCst);
        let _ = Payload::from_bytes(&bytes);
        let _ = Payload::from_bytes(&claimed);
        let _ = BatchFrame::from_bytes(&bytes);
        let _ = applier.handle(&bytes);
        let _ = applier.handle(&sealed);
        let _ = applier.handle(&sealed_claim);
        let _ = applier.handle(&sealed_tagged);
        WATCHING.store(false, Ordering::SeqCst);

        let largest = LARGEST.load(Ordering::SeqCst);
        prop_assert!(
            largest <= 2 * MAX_WIRE_LEN,
            "a decode allocated {largest} bytes from a {}-byte frame",
            claimed.len(),
        );
    }
}
