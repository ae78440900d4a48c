//! The PRINS benchmark.
//!
//! ```text
//! perfbench --workload <tpcc-commit|dense-stream|cluster-rw> --seed <n>
//!           --seconds <s> --trace <0|1> [--spans <file>] [--smoke]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run;
//! `--trace 1` runs the workload untraced and then traced, and prints
//! the per-layer metrics; with `--spans` it also writes every span of the
//! traced window to `<file>`. The last line of standard output is the
//! result as one JSON object. `--smoke` shrinks inputs and runs for tests.
//! See `README.md` beside this file.

mod inputs;
mod kernels;
mod layers;
mod probe;
mod report;
mod trace;
mod workload;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use report::{median, Outcome};
use workload::{Client, Logs, Rig, Window, Workload};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    spans: Option<String>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) = (None, 1, 10, false, false);
    let mut spans = None;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                }
            }
            "--spans" => spans = Some(value()?),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.max(1),
        trace,
        spans,
        smoke,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&args);
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", outcome.json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: replica or read divergence; no metrics reported");
        ExitCode::FAILURE
    }
}

fn run(args: &Args) -> Outcome {
    let w = args.workload;
    let epoch = Instant::now();
    let units = w.timed_units(args.seconds, args.smoke);
    let mut out = Outcome {
        correct: true,
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        notes: vec![format!(
            "workload {} seed {} seconds {} trace {} cpus {}",
            w.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            std::thread::available_parallelism().map_or(0, |n| n.get())
        )],
    };
    if w == Workload::ClusterRw && !probe::pin_to_cpu(workload::CLIENT_CPU) {
        out.notes.push("client thread not pinned".to_string());
    }

    // Set-up: input generation, system build and warm-up, repeated so
    // its median is steady; the last system built is the one measured.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut kept = None;
    for rep in 0..reps {
        let t = Instant::now();
        let stream = w.stream(args.seed, args.smoke);
        let mut shadow = stream.shadow();
        let mut rig = Rig::build(w, &stream, shadow.as_bytes(), None);
        let mut client = Client::new(epoch, &stream, args.seed, None);
        rig.warm_up(w, &stream, &mut shadow, &mut client, args.smoke);
        setups.push(t.elapsed().as_secs_f64());
        if rep + 1 < reps {
            out.correct &= rig.finish(&shadow, &mut client);
            out.failed += client.failed;
        } else {
            kept = Some((stream, shadow, rig, client));
        }
    }
    let (stream, mut shadow, mut rig, mut client) = kept.expect("at least one set-up");
    out.notes.push(format!(
        "inputs: {} distinct writes over {} blocks of {} B, replayed cyclically; set-ups {setups:.3?} s",
        stream.len(),
        stream.blocks,
        stream.block_size.bytes()
    ));

    // A traced run counts allocations in both passes, so the counter's
    // cost does not skew `trace.overhead_ratio`.
    probe::set_counting(args.trace);
    let baseline = rig.measure(w, &stream, &mut shadow, &mut client, units);
    out.correct &= rig.finish(&shadow, &mut client);
    out.attempted += baseline.ops;
    out.failed += client.failed;
    describe(&mut out, "untraced", &baseline, &client);

    if !args.trace {
        end_to_end(&mut out, &baseline, &client, &setups);
        return out;
    }

    let replicas = baseline.replicas;
    let logs = Logs::new(epoch, replicas, units * 2 + 16_384);
    let mut shadow = stream.shadow();
    let mut rig = Rig::build(w, &stream, shadow.as_bytes(), Some(&logs));
    let mut client = Client::new(epoch, &stream, args.seed, Some(Arc::clone(&logs.client)));
    rig.warm_up(w, &stream, &mut shadow, &mut client, args.smoke);
    let traced = rig.measure(w, &stream, &mut shadow, &mut client, units);
    out.correct &= rig.finish(&shadow, &mut client);
    out.attempted += traced.ops;
    out.failed += client.failed;
    describe(&mut out, "traced", &traced, &client);

    let batch = if w == Workload::ClusterRw { 1 } else { 8 };
    let kernels = kernels::measure(&stream, batch, args.smoke);
    layers::report(&mut out, w, &logs, &traced, &baseline, &kernels);
    if let Some(path) = &args.spans {
        if let Err(e) = logs.write_tsv(path, traced.start, traced.start + traced.wall_ns) {
            out.notes.push(format!("spans not written to {path}: {e}"));
        }
    }
    out
}

/// The gated metrics of an untraced run.
fn end_to_end(out: &mut Outcome, win: &Window, client: &Client, setups: &[f64]) {
    out.metric("throughput_ops_s", win.rate, "1/s");
    out.metric("write_p50_us", client.write.quantile_us(0.5), "us");
    out.metric("write_p90_us", client.write.quantile_us(0.9), "us");
    out.metric("commit_p50_us", client.commit.quantile_us(0.5), "us");
    out.metric("commit_p90_us", client.commit.quantile_us(0.9), "us");
    out.metric("read_p50_us", client.read.quantile_us(0.5), "us");
    out.metric("read_p90_us", client.read.quantile_us(0.9), "us");
    out.metric(
        "wire_bytes_per_write",
        win.wire_bytes as f64 / win.writes as f64,
        "B",
    );
    out.metric(
        "cpu_us_per_op",
        win.cpu.process as f64 / win.ops as f64,
        "us",
    );
    out.metric("setup_s", median(setups), "s");
    out.metric("peak_rss_mib", probe::peak_rss_mib(), "MiB");
}

fn describe(out: &mut Outcome, pass: &str, win: &Window, client: &Client) {
    out.notes.push(format!(
        "{pass}: ops={} writes={} reads={} wall={:.3}s cpu: process={}us client={}us engine={}us replicas={}us wire_bytes={} frames={} failed={}",
        win.ops,
        win.writes,
        win.reads,
        win.wall_ns as f64 / 1e9,
        win.cpu.process,
        win.cpu.client,
        win.cpu.engine(),
        win.cpu.replicas,
        win.wire_bytes,
        win.frames,
        client.failed,
    ));
    for (name, lat) in [
        ("write", &client.write),
        ("commit", &client.commit),
        ("read", &client.read),
    ] {
        out.notes.push(format!("{pass} {}", lat.describe(name)));
    }
}
