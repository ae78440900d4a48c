//! Byte-identity of the pooled zero-copy hot path.
//!
//! The engine builds frames in pooled buffers with fused delta encoding
//! and batch-aware sealing, none of which may change a single wire
//! byte. These tests capture every frame a stepped engine puts on the
//! wire and compare them against the reference encodings — the dense
//! parity through `SparseCodec::encode(..).to_bytes()`, wrapped by
//! `Payload::to_bytes`, packed by `BatchFrame::to_bytes` and sealed with
//! `seal_frame` — then replay the captured frames through a
//! [`ReplicaApplier`] and check the replica converges to the primary's
//! exact contents.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
use prins_core::EngineBuilder;
use prins_net::{LinkModel, NetError, TrafficMeter, Transport};
use prins_parity::{forward_parity, SparseCodec};
use prins_repl::{
    encode_ack, seal_frame, BatchFrame, Payload, PayloadBody, ReplicaApplier, ReplicationMode, ACK,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The epoch a fresh `ReplicaLink` seals under. A link opens a new
/// epoch only after a failure, which these runs never hit.
const FIRST_EPOCH: u64 = 1;

/// Records every sent frame and acks each one unconditionally.
struct RecordingTransport {
    sent: Arc<Mutex<Vec<Vec<u8>>>>,
    meter: Arc<TrafficMeter>,
}

impl RecordingTransport {
    fn new() -> (Self, Arc<Mutex<Vec<Vec<u8>>>>) {
        let sent = Arc::new(Mutex::new(Vec::new()));
        let transport = Self {
            sent: Arc::clone(&sent),
            meter: TrafficMeter::shared(LinkModel::gigabit_lan()),
        };
        (transport, sent)
    }
}

impl Transport for RecordingTransport {
    fn send(&self, msg: &[u8]) -> Result<(), NetError> {
        self.meter.record_send(msg.len());
        self.sent.lock().unwrap().push(msg.to_vec());
        Ok(())
    }

    fn recv(&self) -> Result<Vec<u8>, NetError> {
        Ok(encode_ack(ACK, FIRST_EPOCH))
    }

    fn recv_timeout(&self, _timeout: Duration) -> Result<Vec<u8>, NetError> {
        self.recv()
    }

    fn meter(&self) -> &Arc<TrafficMeter> {
        &self.meter
    }
}

/// The reference payload of one write: the sparse encoding of the dense
/// parity, or the full block where PRINS falls back to it (the parity
/// would not be smaller) and always for traditional replication.
fn reference_payload(mode: ReplicationMode, lba: Lba, old: &[u8], new: &[u8]) -> Vec<u8> {
    let sparse = SparseCodec::default()
        .encode(&forward_parity(old, new))
        .to_bytes();
    let body = match mode {
        ReplicationMode::Prins if sparse.len() < new.len() => PayloadBody::Parity(sparse),
        ReplicationMode::Prins | ReplicationMode::Traditional => PayloadBody::Full(new.to_vec()),
        other => panic!("no reference payload for {other}"),
    };
    Payload { lba, body }.to_bytes()
}

/// Runs `writes` seeded writes through a stepped engine, returning the
/// captured wire frames, the reference per-write payloads (in
/// admission order) and the primary's final image.
fn run_engine(
    mode: ReplicationMode,
    batch: usize,
    writes: u64,
    step_each: bool,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>, Vec<u8>) {
    const BLOCKS: u64 = 8;
    let device = Arc::new(MemDevice::new(BlockSize::kb4(), BLOCKS));
    let (transport, sent) = RecordingTransport::new();
    let engine = EngineBuilder::new(Arc::clone(&device) as Arc<dyn BlockDevice>)
        .mode(mode)
        .replica(Box::new(transport))
        .batch_frames(batch)
        .manual_stepping(true)
        .build();

    // Shadow the engine: encode each write against the same old image
    // the engine captured.
    let mut shadow = vec![vec![0u8; 4096]; BLOCKS as usize];
    let mut payloads = Vec::new();

    let mut rng = StdRng::seed_from_u64(42);
    for i in 0..writes {
        let lba = Lba(i % BLOCKS);
        let mut block = shadow[lba.index() as usize].clone();
        if rng.random_range(0..3) == 0 {
            // Full-block change: delta falls back to a Full payload.
            rng.fill_bytes(&mut block);
        } else {
            let at = rng.random_range(0..4096);
            block[at] ^= 0x5a;
        }
        payloads.push(reference_payload(
            mode,
            lba,
            &shadow[lba.index() as usize],
            &block,
        ));
        shadow[lba.index() as usize] = block.clone();
        engine.write_block(lba, &block).unwrap();
        if step_each {
            while engine.step() {}
        }
    }
    engine.flush().unwrap();
    let stats = engine.stats();
    assert_eq!(stats.writes_replicated, writes);
    assert_eq!(stats.replication_errors, 0);
    engine.shutdown().unwrap();

    let frames = Arc::try_unwrap(sent).unwrap().into_inner().unwrap();
    (frames, payloads, device.snapshot())
}

/// Replays `frames` through a fresh applier and returns its image.
fn replay(frames: &[Vec<u8>]) -> Vec<u8> {
    let device = Arc::new(MemDevice::new(BlockSize::kb4(), 8));
    let mut applier = ReplicaApplier::new(Arc::clone(&device));
    for frame in frames {
        applier.handle(frame).unwrap();
    }
    device.snapshot()
}

#[test]
fn per_write_frames_match_classic_seal_path() {
    for mode in [ReplicationMode::Traditional, ReplicationMode::Prins] {
        let (frames, payloads, primary) = run_engine(mode, 1, 48, true);
        assert_eq!(frames.len(), payloads.len());
        for (i, (frame, payload)) in frames.iter().zip(&payloads).enumerate() {
            let expected = seal_frame(FIRST_EPOCH, payload);
            assert_eq!(frame, &expected, "{mode:?}: frame {i} diverged");
        }
        assert_eq!(replay(&frames), primary, "{mode:?}: applier state diverged");
    }
}

#[test]
fn batch_sealed_frames_match_classic_batch_assembly() {
    // All writes admitted before the flush steps the pipeline: a full
    // queue batches exactly `batch` payloads per frame.
    const BATCH: usize = 4;
    let (frames, payloads, primary) = run_engine(ReplicationMode::Prins, BATCH, 48, false);
    assert_eq!(frames.len(), payloads.len() / BATCH);
    for (i, (frame, group)) in frames.iter().zip(payloads.chunks(BATCH)).enumerate() {
        let inner = BatchFrame {
            payloads: group.to_vec(),
        }
        .to_bytes();
        let expected = seal_frame(FIRST_EPOCH, &inner);
        assert_eq!(frame, &expected, "batched frame {i} diverged");
    }
    assert_eq!(replay(&frames), primary, "applier state diverged");
}
