//! Per-layer metrics of a traced run, named after the crate whose
//! public calls the spans surround.

use prins_repl::ACK;

use crate::kernels::Kernels;
use crate::report::Outcome;
use crate::trace::{child_time, mean_dur, merged, ratio, Kind, Span};
use crate::workload::{Logs, Window, Workload};

fn of(spans: &[Span], kinds: &[Kind]) -> Vec<Span> {
    spans
        .iter()
        .filter(|s| kinds.contains(&s.kind))
        .copied()
        .collect()
}

fn count(spans: &[Span], kind: Kind) -> f64 {
    spans.iter().filter(|s| s.kind == kind).count() as f64
}

/// Mean of `parent − children` over `parents`, in nanoseconds.
fn self_ns(parents: &[Span], children: &[Span]) -> f64 {
    let covered: u64 = child_time(parents, children).iter().sum();
    let total: u64 = parents.iter().map(Span::dur).sum();
    ratio(total.saturating_sub(covered) as f64, parents.len() as f64)
}

/// Replica-side handling: per frame, from `recv` returning to the
/// response send. Returns (all frames' time, data frames' time, frames).
fn replica_handling(net: &[Span]) -> (u64, u64, u64) {
    let (mut all, mut data, mut frames) = (0, 0, 0);
    let mut received_at = None;
    for s in net {
        match s.kind {
            Kind::Recv => received_at = Some(s.end),
            Kind::Send => {
                if let Some(at) = received_at.take() {
                    let handled = s.start.saturating_sub(at);
                    all += handled;
                    frames += 1;
                    if s.tag == ACK {
                        data += handled;
                    }
                }
            }
            _ => {}
        }
    }
    (all, data, frames)
}

/// Adds every per-layer metric to `out`. A metric of a layer the
/// workload does not run through (the engine on `cluster-rw`, the
/// cluster on the engine workloads) reads 0.
pub fn report(
    out: &mut Outcome,
    workload: Workload,
    logs: &Logs,
    traced: &Window,
    baseline: &Window,
    kernels: &Kernels,
) {
    let (from, to) = (traced.start, traced.start + traced.wall_ns);
    let client = logs.client.within(from, to);
    let primary_dev = logs.primary_dev.within(from, to);
    let primary_net: Vec<Vec<Span>> = logs
        .primary_net
        .iter()
        .map(|l| l.within(from, to))
        .collect();
    let replica_dev = merged(
        &logs
            .replica_dev
            .iter()
            .map(|l| l.within(from, to))
            .collect::<Vec<_>>(),
    );
    let replica_net: Vec<Vec<Span>> = logs
        .replica_net
        .iter()
        .map(|l| l.within(from, to))
        .collect();
    let all_primary_net = merged(&primary_net);
    let all_replica_net = merged(&replica_net);
    let writes = traced.writes as f64;
    let replicated = writes * traced.replicas as f64;
    let cluster = workload == Workload::ClusterRw;

    // prins-core: the engine's write call minus its device calls.
    let (core_self, coalesced, hwm) = match &traced.engine {
        Some(stats) => (
            self_ns(&of(&client, &[Kind::Write]), &primary_dev),
            ratio(stats.coalesced_writes as f64, stats.writes as f64),
            stats.queue_depth_hwm as f64,
        ),
        None => (0.0, 0.0, 0.0),
    };
    out.metric("core.write_self_ns", core_self, "ns");
    out.metric("core.coalesced_ratio", coalesced, "ratio");
    out.metric("core.queue_depth_hwm", hwm, "count");

    // prins-parity.
    out.metric(
        "parity.encode_ns_per_write",
        kernels.encode_ns_per_write,
        "ns",
    );
    out.metric(
        "parity.payload_bytes_per_write",
        kernels.payload_bytes_per_write,
        "B",
    );

    // prins-repl: sealing, and the replica's frame handling.
    let (handle_all, handle_data, handled) = replica_net
        .iter()
        .map(|n| replica_handling(n))
        .fold((0, 0, 0), |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2));
    out.metric("repl.seal_ns_per_frame", kernels.seal_ns_per_frame, "ns");
    out.metric(
        "repl.handle_ns_per_frame",
        ratio(handle_all as f64, handled as f64),
        "ns",
    );
    out.metric(
        "repl.handle_ns_per_write",
        ratio(handle_data as f64, replicated),
        "ns",
    );

    // prins-block.
    out.metric(
        "block.primary_read_ns",
        mean_dur(&primary_dev, Kind::DevRead),
        "ns",
    );
    out.metric(
        "block.primary_write_ns",
        mean_dur(&primary_dev, Kind::DevWrite),
        "ns",
    );
    out.metric(
        "block.replica_read_ns",
        mean_dur(&replica_dev, Kind::DevRead),
        "ns",
    );
    out.metric(
        "block.replica_write_ns",
        mean_dur(&replica_dev, Kind::DevWrite),
        "ns",
    );
    out.metric(
        "block.replica_reads_per_write",
        ratio(count(&replica_dev, Kind::DevRead), replicated),
        "reads/write",
    );
    out.metric(
        "block.crc32c_ns_per_kib",
        kernels.crc32c_ns_per_kib,
        "ns/KiB",
    );

    // prins-net: the primary's transports and the replicas'.
    out.metric(
        "net.frames_per_write",
        ratio(traced.frames as f64, writes),
        "frames/write",
    );
    out.metric(
        "net.wire_bytes_per_frame",
        ratio(traced.wire_bytes as f64, traced.frames as f64),
        "B/frame",
    );
    out.metric(
        "net.primary_send_ns_per_frame",
        mean_dur(&all_primary_net, Kind::Send),
        "ns",
    );
    out.metric(
        "net.ack_wait_ns_per_frame",
        mean_dur(&all_primary_net, Kind::Recv),
        "ns",
    );
    out.metric(
        "net.replica_recv_wait_ns_per_frame",
        mean_dur(&all_replica_net, Kind::Recv),
        "ns",
    );
    out.metric(
        "net.replica_send_ns_per_ack",
        mean_dur(&all_replica_net, Kind::Send),
        "ns",
    );

    // prins-cluster: the serial write and read calls, which run their
    // device and transport calls on the client thread.
    let (write_self, read_self, ack_wait) = if cluster {
        let writes_spans = of(&client, &[Kind::Write, Kind::Commit]);
        let children = merged(&[primary_dev.clone(), all_primary_net.clone()]);
        let acks: u64 = child_time(&writes_spans, &of(&all_primary_net, &[Kind::Recv]))
            .iter()
            .sum();
        (
            self_ns(&writes_spans, &children),
            self_ns(&of(&client, &[Kind::Read]), &children),
            ratio(acks as f64, writes),
        )
    } else {
        (0.0, 0.0, 0.0)
    };
    out.metric("cluster.write_self_ns", write_self, "ns");
    out.metric("cluster.read_self_ns", read_self, "ns");
    out.metric("cluster.ack_wait_ns_per_write", ack_wait, "ns");
    out.metric(
        "cluster.read_offload_ratio",
        ratio(traced.offloaded as f64, traced.reads as f64),
        "ratio",
    );
    out.metric(
        "cluster.read_rejected_per_read",
        ratio(traced.rejected as f64, traced.reads as f64),
        "rejects/read",
    );

    // The process, from the untraced baseline pass.
    let ops = baseline.ops as f64;
    out.metric(
        "proc.client_cpu_us_per_op",
        ratio(baseline.cpu.client as f64, ops),
        "us",
    );
    out.metric(
        "proc.engine_cpu_us_per_op",
        ratio(baseline.cpu.engine() as f64, ops),
        "us",
    );
    out.metric(
        "proc.replica_cpu_us_per_op",
        ratio(baseline.cpu.replicas as f64, ops),
        "us",
    );
    out.metric(
        "proc.allocs_per_op",
        ratio(baseline.allocs as f64, ops),
        "allocs/op",
    );
    let in_calls: u64 = client.iter().map(Span::dur).sum();
    out.metric(
        "trace.unattributed_share",
        1.0 - ratio(in_calls as f64, traced.wall_ns as f64),
        "ratio",
    );
    out.metric(
        "trace.overhead_ratio",
        ratio(
            traced.wall_ns as f64 / traced.ops as f64,
            baseline.wall_ns as f64 / baseline.ops as f64,
        ),
        "ratio",
    );
}
