//! Workload inputs: compact write streams made from the seed before the
//! timed window, and the shadow image they are expanded into.
//!
//! A stream stores each write as its sparse XOR delta: the LBA plus a
//! few `(offset, bytes)` segments. Expanding write `i` XORs its segments
//! into the shadow copy of the block, which then *is* the new image the
//! client hands to the program; the cost is O(delta), not a block copy.
//! A stream shorter than a run is replayed cyclically. Each pass XORs
//! the same deltas again, so every write still changes exactly the bytes
//! its record names and the wire traffic per write repeats per pass.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use prins_block::{BlockSize, Lba};
use prins_parity::{forward_parity, SparseCodec};
use prins_workloads::{run, RunConfig, Workload};

/// SplitMix64: a small seeded generator for everything the benchmark
/// draws (LBAs, run placement, read targets, content).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5eed_0f9a_117e_5700)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    pub fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// One changed extent of a write: `len` bytes at `offset` in the block,
/// XORed with `data[at..at + len]` of the stream's byte arena.
#[derive(Clone, Copy, Debug)]
struct Seg {
    offset: u16,
    len: u16,
    at: u32,
}

/// A cyclic stream of block writes over a dense LBA space.
pub struct Stream {
    pub block_size: BlockSize,
    pub blocks: u64,
    lbas: Vec<u32>,
    /// `segs[seg_start[i]..seg_start[i + 1]]` are write `i`'s extents.
    seg_start: Vec<u32>,
    segs: Vec<Seg>,
    data: Vec<u8>,
    initial: Initial,
}

/// Every block's image before the first write.
enum Initial {
    /// Captured images, block after block.
    Images(Vec<u8>),
    /// Random content drawn from this seed and the block's LBA, so a
    /// large working set costs no stored copy.
    Seeded(u64),
}

impl Stream {
    /// Distinct records before the stream repeats.
    pub fn len(&self) -> usize {
        self.lbas.len()
    }

    /// LBA of write `i` (cyclic).
    pub fn lba(&self, i: usize) -> u64 {
        u64::from(self.lbas[i % self.lbas.len()])
    }

    /// Applies write `i` (cyclic) to `block`, turning the old image into
    /// the new one.
    pub fn apply(&self, i: usize, block: &mut [u8]) {
        let r = i % self.lbas.len();
        for seg in &self.segs[self.seg_start[r] as usize..self.seg_start[r + 1] as usize] {
            let (off, len, at) = (seg.offset as usize, seg.len as usize, seg.at as usize);
            for (b, d) in block[off..off + len]
                .iter_mut()
                .zip(&self.data[at..at + len])
            {
                *b ^= d;
            }
        }
    }

    /// Writes block `lba`'s pre-run image into `out`.
    pub fn initial_block(&self, lba: u64, out: &mut [u8]) {
        match &self.initial {
            Initial::Images(images) => {
                let at = lba as usize * out.len();
                out.copy_from_slice(&images[at..at + out.len()]);
            }
            Initial::Seeded(seed) => Rng::new(seed ^ lba.wrapping_mul(0x9e37_79b9)).fill(out),
        }
    }

    /// A fresh copy of the pre-run image of the whole LBA space.
    pub fn shadow(&self) -> Shadow {
        let bs = self.block_size.bytes();
        let bytes = match &self.initial {
            Initial::Images(images) => images.clone(),
            Initial::Seeded(_) => {
                let mut bytes = vec![0u8; self.blocks as usize * bs];
                for (lba, block) in bytes.chunks_mut(bs).enumerate() {
                    self.initial_block(lba as u64, block);
                }
                bytes
            }
        };
        Shadow { bs, bytes }
    }

    fn push_write(&mut self, lba: u32) {
        self.lbas.push(lba);
        self.seg_start.push(self.segs.len() as u32);
    }

    fn seal(mut self) -> Self {
        self.seg_start.push(self.segs.len() as u32);
        self
    }
}

/// The benchmark's own copy of what every block must hold: the expected
/// primary image, against which reads and the final device are checked.
pub struct Shadow {
    bs: usize,
    bytes: Vec<u8>,
}

impl Shadow {
    pub fn block(&self, lba: u64) -> &[u8] {
        let at = lba as usize * self.bs;
        &self.bytes[at..at + self.bs]
    }

    /// Expands write `i` of `stream` in place and returns its new image.
    pub fn advance(&mut self, stream: &Stream, i: usize) -> (Lba, &[u8]) {
        let lba = stream.lba(i);
        let at = lba as usize * self.bs;
        stream.apply(i, &mut self.bytes[at..at + self.bs]);
        (Lba(lba), &self.bytes[at..at + self.bs])
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// TPC-C transactions captured per stream at full scale: ≈33k block
/// writes, about one second of capture on a 2-vCPU box.
pub const TPCC_TXNS: usize = 5_000;
/// The same at smoke scale.
pub const TPCC_TXNS_SMOKE: usize = 300;

/// Captures the TPC-C Oracle-profile write stream (8 KiB pages) of
/// `txns` transactions from `seed`. LBAs are renumbered densely in order
/// of first touch; each block starts as the image the database loaded.
pub fn tpcc_stream(seed: u64, txns: usize, smoke: bool) -> Stream {
    let bs = BlockSize::kb8();
    let config = if smoke {
        RunConfig::smoke(bs)
    } else {
        RunConfig::bench(bs, txns)
    };
    let config = RunConfig {
        ops: txns,
        ..config.with_seed(seed)
    };
    let builder = Arc::new(Mutex::new((
        HashMap::<u64, u32>::new(),
        Stream {
            block_size: bs,
            blocks: 0,
            lbas: Vec::new(),
            seg_start: Vec::new(),
            segs: Vec::new(),
            data: Vec::new(),
            initial: Initial::Images(Vec::new()),
        },
    )));
    let sink = Arc::clone(&builder);
    let codec = SparseCodec::default();
    run(
        Workload::TpccOracle,
        &config,
        Some(Box::new(move |_seq, lba, old, new| {
            let mut guard = sink.lock().expect("capture lock");
            let (remap, stream) = &mut *guard;
            let next = remap.len() as u32;
            let dense = *remap.entry(lba.index()).or_insert_with(|| {
                if let Initial::Images(images) = &mut stream.initial {
                    images.extend_from_slice(old);
                }
                next
            });
            stream.push_write(dense);
            for seg in codec.encode(&forward_parity(old, new)).segments() {
                stream.segs.push(Seg {
                    offset: seg.offset as u16,
                    len: seg.data.len() as u16,
                    at: stream.data.len() as u32,
                });
                stream.data.extend_from_slice(&seg.data);
            }
        })),
    )
    .expect("TPC-C capture runs");
    let (remap, mut stream) = Arc::try_unwrap(builder)
        .ok()
        .expect("capture observer dropped")
        .into_inner()
        .expect("capture lock");
    stream.blocks = remap.len() as u64;
    stream.seal()
}

/// Writes per dense stream before it repeats.
const DENSE_RECORDS: usize = 1 << 17;
const DENSE_RECORDS_SMOKE: usize = 1 << 12;
/// Extents per dense write; each sits at a random place inside its own
/// 1/16 of the block.
const DENSE_RUNS: usize = 16;
/// Random bytes the dense extents XOR in, shared by all records.
const DENSE_POOL: usize = 4 << 20;

/// A synthetic dense stream over 4 KiB blocks: each write rewrites
/// ≈40 % of one uniformly drawn block in 16 scattered runs of 64–140
/// bytes. The working set is `blocks` blocks of random initial content
/// (65536 blocks = 256 MiB at full scale).
pub fn dense_stream(seed: u64, smoke: bool) -> Stream {
    let bs = BlockSize::kb4();
    let blocks: u64 = if smoke { 1024 } else { 65_536 };
    let records = if smoke {
        DENSE_RECORDS_SMOKE
    } else {
        DENSE_RECORDS
    };
    let mut rng = Rng::new(seed);
    let mut data = vec![0u8; DENSE_POOL];
    rng.fill(&mut data);
    let mut stream = Stream {
        block_size: bs,
        blocks,
        lbas: Vec::with_capacity(records),
        seg_start: Vec::with_capacity(records + 1),
        segs: Vec::with_capacity(records * DENSE_RUNS),
        data,
        initial: Initial::Seeded(rng.next_u64()),
    };
    let slot = bs.bytes() / DENSE_RUNS;
    for _ in 0..records {
        stream.push_write(rng.below(blocks) as u32);
        for run in 0..DENSE_RUNS {
            let len = 64 + rng.below(77) as usize;
            let offset = run * slot + rng.below((slot - len) as u64 + 1) as usize;
            let at = rng.below((DENSE_POOL - len) as u64) as u32;
            stream.segs.push(Seg {
                offset: offset as u16,
                len: len as u16,
                at,
            });
        }
    }
    stream.seal()
}
