//! Timed calls to the program's public kernels on the workload's own
//! inputs: parity encode, frame seal and CRC32C.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use prins_block::{crc32c, Lba};
use prins_repl::{seal_batch_frame_into, seal_frame_into, PrinsReplicator, Replicator};

use crate::inputs::Stream;
use crate::report::median;

/// Writes sampled from the start of the stream.
const SAMPLE: usize = 2_048;
/// Timed passes over the sample; each kernel reports its median pass.
const PASSES: usize = 7;

pub struct Kernels {
    pub encode_ns_per_write: f64,
    /// Exact: the encoded payload bytes of the sample, per write.
    pub payload_bytes_per_write: f64,
    pub seal_ns_per_frame: f64,
    pub crc32c_ns_per_kib: f64,
}

/// Median over [`PASSES`] of the nanoseconds `pass` takes.
fn timed(mut pass: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            pass();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&times)
}

/// Times the kernels on the first writes of `stream`. `batch` is the
/// number of payloads per sealed frame on the workload's path (the
/// engine batches, the cluster seals one payload per frame).
pub fn measure(stream: &Stream, batch: usize, smoke: bool) -> Kernels {
    let bs = stream.block_size.bytes();
    let sample = if smoke { 256 } else { SAMPLE };
    // Reconstruct (old, new) for the sample on top of the initial image.
    let mut current: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut pairs = Vec::with_capacity(sample);
    for i in 0..sample {
        let lba = stream.lba(i);
        let old = current.remove(&lba).unwrap_or_else(|| {
            let mut block = vec![0u8; bs];
            stream.initial_block(lba, &mut block);
            block
        });
        let mut new = old.clone();
        stream.apply(i, &mut new);
        current.insert(lba, new.clone());
        pairs.push((Lba(lba), old, new));
    }

    let replicator = PrinsReplicator::new();
    let payloads: Vec<Vec<u8>> = pairs
        .iter()
        .map(|(lba, old, new)| {
            let mut out = Vec::new();
            replicator.encode_write_into(*lba, old, new, &mut out);
            out
        })
        .collect();
    let payload_bytes: usize = payloads.iter().map(Vec::len).sum();

    let mut out = Vec::with_capacity(bs * 2);
    let encode = timed(|| {
        for (lba, old, new) in &pairs {
            out.clear();
            replicator.encode_write_into(*lba, black_box(old), black_box(new), &mut out);
            black_box(&out);
        }
    });

    let frames = payloads.len().div_ceil(batch);
    let mut frame = Vec::with_capacity(bs * batch + 64);
    let seal = timed(|| {
        for chunk in payloads.chunks(batch) {
            frame.clear();
            if batch == 1 {
                seal_frame_into(1, black_box(&chunk[0]), &mut frame);
            } else {
                seal_batch_frame_into(1, black_box(chunk), &mut frame);
            }
            black_box(&frame);
        }
    });

    let crc = timed(|| {
        for (_, _, new) in &pairs {
            black_box(crc32c(black_box(new)));
        }
    });

    Kernels {
        encode_ns_per_write: encode / sample as f64,
        payload_bytes_per_write: payload_bytes as f64 / sample as f64,
        seal_ns_per_frame: seal / frames as f64,
        crc32c_ns_per_kib: crc / (sample * bs) as f64 * 1024.0,
    }
}
