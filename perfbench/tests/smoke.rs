//! The benchmark's self-test at smoke size: every workload runs, checks
//! itself correct, and prints every metric `BENCHMARK.json` names with
//! its unit; exact counts repeat for a seed and change with the seed.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["tpcc-commit", "dense-stream", "cluster-rw"];

/// Runs the benchmark at smoke size and returns its result line.
fn run(workload: &str, seed: u64, trace: u8) -> String {
    run_with(workload, seed, trace, &[])
}

fn run_with(workload: &str, seed: u64, trace: u8, extra: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", &trace.to_string(), "--smoke"])
        .args(extra)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} trace {trace}:\n{stdout}");
    stdout.lines().last().expect("a result line").to_string()
}

/// The value of metric `name` in a result line.
fn value(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing: {line}"))
        + key.len();
    let end = at + line[at..].find(',').expect("value ends");
    line[at..end].parse().expect("numeric value")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section ends")];
    let field = |entry: &str, key: &str| {
        let key = format!("\"{key}\": \"");
        let at = entry.find(&key).expect("field present") + key.len();
        entry[at..at + entry[at..].find('"').expect("field ends")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let metrics = declared(section);
        assert!(!metrics.is_empty(), "{section} declares metrics");
        for workload in WORKLOADS {
            let line = run(workload, 1, trace);
            assert!(line.starts_with("{\"correct\": true"), "{line}");
            assert!(line.contains("\"failed\": 0,"), "{line}");
            for (name, unit) in &metrics {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{name} missing: {line}"));
                let unit_at = line[at..].find("\"unit\": \"").expect("unit follows") + at + 9;
                assert!(
                    line[unit_at..].starts_with(&format!("{unit}\"")),
                    "{workload}: {name} should be in {unit}: {line}"
                );
                assert!(value(&line, name).is_finite());
            }
        }
    }
}

#[test]
fn exact_counts_repeat_for_a_seed_and_change_with_it() {
    let payload = |seed| {
        value(
            &run("tpcc-commit", seed, 1),
            "parity.payload_bytes_per_write",
        )
    };
    assert_eq!(payload(1), payload(1));
    assert_ne!(payload(1), payload(2));

    let wire = |seed| value(&run("cluster-rw", seed, 0), "wire_bytes_per_write");
    assert_eq!(wire(1), wire(1));
    assert_ne!(wire(1), wire(2));
}

#[test]
fn traced_runs_write_their_spans_out() {
    let path = format!("{}/spans-cluster-rw.tsv", env!("CARGO_TARGET_TMPDIR"));
    run_with("cluster-rw", 1, 1, &["--spans", &path]);
    let tsv = std::fs::read_to_string(&path).expect("span file written");
    for log in [
        "client\t",
        "primary_dev\t",
        "primary_net1\t",
        "replica_dev0\t",
        "replica_net1\t",
    ] {
        assert!(tsv.lines().any(|l| l.starts_with(log)), "no {log} spans");
    }
    for line in tsv.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        let (start, end): (u64, u64) = (fields[3].parse().unwrap(), fields[4].parse().unwrap());
        assert!(fields.len() == 5 && start <= end, "{line}");
    }
}
