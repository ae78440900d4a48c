//! Write-trace tooling: capture a workload's content-carrying block
//! write stream to a file, inspect it, and replay it against the
//! replication strategies without re-running the workload.
//!
//! ```text
//! trace capture tpcc-oracle /tmp/t.prt --ops 300 --block-size 8
//! trace inspect /tmp/t.prt
//! trace replay  /tmp/t.prt
//! ```

use std::process::ExitCode;

use prins_block::{BlockSize, Lba};
use prins_net::LinkModel;
use prins_parity::DeltaStats;
use prins_repl::ReplicationMode;
use prins_workloads::{capture_trace, RunConfig, Workload, WriteTrace};

fn parse_workload(name: &str) -> Option<Workload> {
    Workload::ALL.into_iter().find(|w| w.name() == name)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  trace capture <tpcc-oracle|tpcc-postgres|tpcw-mysql|fs-micro> <file> \
         [--ops N] [--block-size KB]\n  trace inspect <file>\n  trace replay <file>"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("capture") => capture(&args[1..]),
        Some("inspect") => inspect(&args[1..]),
        Some("replay") => replay(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn capture(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let (Some(workload), Some(path)) = (args.first(), args.get(1)) else {
        return Err("capture needs a workload and an output file".into());
    };
    let workload = parse_workload(workload).ok_or("unknown workload")?;
    let mut ops = 200usize;
    let mut block_kb = 8u32;
    let mut iter = args[2..].iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--ops" => ops = iter.next().ok_or("--ops needs a value")?.parse()?,
            "--block-size" => {
                block_kb = iter.next().ok_or("--block-size needs a value")?.parse()?
            }
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    let mut config = RunConfig::bench(BlockSize::new(block_kb * 1024)?, ops);
    config.ops = ops;
    let trace = capture_trace(workload, &config)?;
    std::fs::write(path, trace.to_bytes())?;
    println!(
        "captured {} writes of {} blocks from {workload} into {path} ({} bytes)",
        trace.len(),
        trace.block_size(),
        std::fs::metadata(path)?.len()
    );
    Ok(())
}

fn load(args: &[String]) -> Result<WriteTrace, Box<dyn std::error::Error>> {
    let path = args.first().ok_or("need a trace file")?;
    let bytes = std::fs::read(path)?;
    Ok(WriteTrace::from_bytes(&bytes)?)
}

fn inspect(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let trace = load(args)?;
    let mut delta = DeltaStats::default();
    let mut lbas = std::collections::HashSet::new();
    trace.replay(|lba, old, new| {
        delta.merge(&DeltaStats::measure(old, new));
        lbas.insert(lba.index());
    });
    println!("block size:      {}", trace.block_size());
    println!("writes:          {}", trace.len());
    println!("distinct blocks: {}", lbas.len());
    println!(
        "change ratio:    {:.2}% mean ({} extents over {} writes)",
        delta.change_ratio() * 100.0,
        delta.changed_extents,
        trace.len()
    );
    Ok(())
}

fn replay(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let trace = load(args)?;
    let link = LinkModel::t1();
    println!(
        "{:>14} {:>14} {:>14} {:>10}",
        "strategy", "payload KB", "wire KB", "B/write"
    );
    for mode in ReplicationMode::ALL {
        let replicator = mode.replicator();
        let mut payload = 0u64;
        let mut wire = 0u64;
        let mut bytes = Vec::new();
        trace.replay(|lba, old, new| {
            bytes.clear();
            replicator.encode_write_into(Lba(lba.index()), old, new, &mut bytes);
            payload += bytes.len() as u64;
            wire += link.wire_bytes(bytes.len());
        });
        println!(
            "{:>14} {:>14.1} {:>14.1} {:>10.0}",
            mode.to_string(),
            payload as f64 / 1024.0,
            wire as f64 / 1024.0,
            payload as f64 / trace.len().max(1) as f64
        );
    }
    Ok(())
}
