//! The three workloads: building the system under test, driving it from
//! one client thread, the timed window, and the correctness checks.

use std::io::Write as _;
use std::net::TcpListener;
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use prins_block::{BlockDevice, Lba, MemDevice};
use prins_cluster::{ClusterConfig, ClusterGroup};
use prins_core::{EngineBuilder, EngineStats, PrinsEngine};
use prins_net::{channel_pair, LinkModel, TcpTransport, TrafficMeter, Transport};
use prins_repl::{run_replica, verify_consistent, AckPolicy, ReplError, ReplicationMode};

use crate::inputs::{self, Rng, Shadow, Stream};
use crate::probe::{self, CpuSplit};
use crate::report::{median, Lat, GROUPS};
use crate::trace::{self, Kind, SpanLog, Wire};

/// `cluster-rw` runs its client on CPU 0 and both replica threads on
/// CPU 1: the primary site and the replica site on separate cores.
/// Unpinned, the serial path settles per run into one of two modes,
/// depending on whether the scheduler puts a replica beside the client
/// (≈16k vs ≈23k calls/s on 2 vCPUs). The engine workloads stay
/// unpinned; the engine's own threads float either way.
pub const CLIENT_CPU: usize = 0;
const REPLICA_CPU: usize = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TpccCommit,
    DenseStream,
    ClusterRw,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TpccCommit,
        Workload::DenseStream,
        Workload::ClusterRw,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TpccCommit => "tpcc-commit",
            Workload::DenseStream => "dense-stream",
            Workload::ClusterRw => "cluster-rw",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Writes between two commits. The engine workloads commit with a
    /// `flush()` barrier; `cluster-rw` commits with its transaction's
    /// last write (see [`drive_cluster`]).
    pub fn writes_per_commit(self) -> usize {
        match self {
            Workload::TpccCommit | Workload::ClusterRw => 16,
            Workload::DenseStream => 256,
        }
    }

    /// Reads of blocks written earlier that open each engine commit: a
    /// database re-reading a page, a restore verifying its last
    /// checkpoint.
    fn reads_per_commit(self) -> usize {
        match self {
            Workload::DenseStream => 8,
            _ => 1,
        }
    }

    /// The input stream, made from `seed`.
    pub fn stream(self, seed: u64, smoke: bool) -> Stream {
        match self {
            Workload::TpccCommit | Workload::ClusterRw => {
                let txns = if smoke {
                    inputs::TPCC_TXNS_SMOKE
                } else {
                    inputs::TPCC_TXNS
                };
                inputs::tpcc_stream(seed, txns, smoke)
            }
            Workload::DenseStream => inputs::dense_stream(seed, smoke),
        }
    }

    /// Client calls issued before the timed window.
    fn warmup_units(self, smoke: bool) -> usize {
        match (self, smoke) {
            (_, true) => 256,
            (Workload::ClusterRw, false) => 4_096,
            (_, false) => 8_192,
        }
    }

    /// Work in the timed window: writes for the engine workloads (a whole
    /// number of commits), client calls for `cluster-rw`. Sized so a run
    /// on a 2-vCPU box lasts about `seconds`.
    pub fn timed_units(self, seconds: u64, smoke: bool) -> usize {
        let per_second = match self {
            Workload::TpccCommit => 30_000,
            Workload::DenseStream => 40_000,
            Workload::ClusterRw => 15_000,
        };
        let units = if smoke {
            2_048
        } else {
            per_second * seconds as usize
        };
        match self {
            Workload::ClusterRw => units,
            _ => units.div_ceil(self.writes_per_commit()) * self.writes_per_commit(),
        }
    }
}

/// Span logs of one traced system, one per wrapper.
pub struct Logs {
    pub client: Arc<SpanLog>,
    pub primary_dev: Arc<SpanLog>,
    pub primary_net: Vec<Arc<SpanLog>>,
    pub replica_dev: Vec<Arc<SpanLog>>,
    pub replica_net: Vec<Arc<SpanLog>>,
}

impl Logs {
    pub fn new(epoch: Instant, replicas: usize, capacity: usize) -> Self {
        let log = || SpanLog::new(epoch, capacity);
        Self {
            client: log(),
            primary_dev: log(),
            primary_net: (0..replicas).map(|_| log()).collect(),
            replica_dev: (0..replicas).map(|_| log()).collect(),
            replica_net: (0..replicas).map(|_| log()).collect(),
        }
    }

    /// Writes every span of `[from, to]` to `path` as tab-separated
    /// `log kind tag start_ns end_ns` lines.
    pub fn write_tsv(&self, path: &str, from: u64, to: u64) -> std::io::Result<()> {
        let mut named = vec![
            ("client".to_string(), &self.client),
            ("primary_dev".to_string(), &self.primary_dev),
        ];
        for (role, logs) in [
            ("primary_net", &self.primary_net),
            ("replica_dev", &self.replica_dev),
            ("replica_net", &self.replica_net),
        ] {
            named.extend(
                logs.iter()
                    .enumerate()
                    .map(|(i, l)| (format!("{role}{i}"), l)),
            );
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (name, log) in named {
            for s in log.within(from, to) {
                writeln!(
                    out,
                    "{name}\t{:?}\t{}\t{}\t{}",
                    s.kind, s.tag, s.start, s.end
                )?;
            }
        }
        out.flush()
    }
}

/// The client thread: issues every call, times it, and checks reads.
pub struct Client {
    epoch: Instant,
    log: Option<Arc<SpanLog>>,
    timing: bool,
    pub write: Lat,
    pub commit: Lat,
    pub read: Lat,
    pub failed: u64,
    /// Reads whose bytes differed from the shadow.
    pub diverged: u64,
    rng: Rng,
    /// Index of the next write in the stream.
    next: usize,
    written: Vec<u32>,
    seen: Vec<bool>,
    buf: Vec<u8>,
}

impl Client {
    pub fn new(epoch: Instant, stream: &Stream, seed: u64, log: Option<Arc<SpanLog>>) -> Self {
        Self {
            epoch,
            log,
            timing: false,
            write: Lat::default(),
            commit: Lat::default(),
            read: Lat::default(),
            failed: 0,
            diverged: 0,
            rng: Rng::new(seed ^ 0x0bad_cafe),
            next: 0,
            written: Vec::new(),
            seen: vec![false; stream.blocks as usize],
            buf: vec![0; stream.block_size.bytes()],
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts recording latencies, with room for `units` calls.
    fn start_timing(&mut self, units: usize) {
        self.timing = true;
        self.write = Lat::with_capacity(units);
        self.commit = Lat::with_capacity(units / 8 + 16);
        self.read = Lat::with_capacity(units);
    }

    pub fn ops(&self) -> u64 {
        (self.write.len() + self.commit.len() + self.read.len()) as u64
    }

    /// Runs one client call, timing it and recording its span.
    fn call<T, E>(&mut self, kind: Kind, f: impl FnOnce() -> Result<T, E>) -> Option<T> {
        let t0 = self.now();
        let result = f();
        let t1 = self.now();
        if self.timing {
            let lat = match kind {
                Kind::Write => &mut self.write,
                Kind::Commit => &mut self.commit,
                _ => &mut self.read,
            };
            lat.push(t1 - t0);
        }
        if let Some(log) = &self.log {
            log.record(kind, 0, t0, t1);
        }
        match result {
            Ok(v) => Some(v),
            Err(_) => {
                self.failed += 1;
                None
            }
        }
    }

    fn next_write<'s>(&mut self, stream: &Stream, shadow: &'s mut Shadow) -> (Lba, &'s [u8]) {
        let i = self.next;
        self.next += 1;
        let lba = stream.lba(i);
        if !self.seen[lba as usize] {
            self.seen[lba as usize] = true;
            self.written.push(lba as u32);
        }
        shadow.advance(stream, i)
    }

    /// A seeded pick among the blocks written so far.
    fn pick_read(&mut self) -> Option<Lba> {
        if self.written.is_empty() {
            return None;
        }
        let at = self.rng.below(self.written.len() as u64) as usize;
        Some(Lba(u64::from(self.written[at])))
    }
}

/// A system under test, built and warmed up.
pub enum Rig {
    Engine(EngineRig),
    Cluster(ClusterRig),
}

pub struct EngineRig {
    engine: PrinsEngine,
    primary: Arc<MemDevice>,
    replica_dev: Arc<MemDevice>,
    replica: JoinHandle<Result<u64, ReplError>>,
    tid: u64,
    meter: Arc<TrafficMeter>,
}

pub struct ClusterRig {
    cluster: ClusterGroup<Arc<dyn BlockDevice>>,
    primary: Arc<MemDevice>,
    replica_devs: Vec<Arc<MemDevice>>,
    replicas: Vec<JoinHandle<Result<u64, ReplError>>>,
    tids: Vec<u64>,
    meters: Vec<Arc<TrafficMeter>>,
    offloaded: u64,
    rejected: u64,
}

/// Counters of one timed window.
pub struct Window {
    pub start: u64,
    pub wall_ns: u64,
    /// Median over the window's chunks of calls completed per second.
    pub rate: f64,
    pub ops: u64,
    /// Write calls, commit writes included.
    pub writes: u64,
    pub reads: u64,
    pub cpu: CpuSplit,
    pub allocs: u64,
    pub wire_bytes: u64,
    pub frames: u64,
    pub engine: Option<EngineStats>,
    pub replicas: usize,
    pub offloaded: u64,
    pub rejected: u64,
}

/// Starts a replica thread serving `transport` into `device`, pinned to
/// `cpu` if given; the thread reports its kernel thread id on `tid`.
fn spawn_replica<F>(
    device: Arc<dyn BlockDevice>,
    connect: F,
    log: Option<Arc<SpanLog>>,
    cpu: Option<usize>,
    tid: mpsc::Sender<u64>,
) -> JoinHandle<Result<u64, ReplError>>
where
    F: FnOnce() -> Result<Box<dyn Transport>, ReplError> + Send + 'static,
{
    thread::Builder::new()
        .name("perfbench-replica".into())
        .spawn(move || {
            if let Some(cpu) = cpu {
                probe::pin_to_cpu(cpu);
            }
            let _ = tid.send(probe::current_tid());
            let wire = Wire(trace::transport(connect()?, log.as_ref()));
            run_replica(&*device, &wire)
        })
        .expect("spawn replica thread")
}

impl Rig {
    /// Builds the system for `workload`; every device starts as a copy
    /// of `image`, the whole LBA space.
    pub fn build(workload: Workload, stream: &Stream, image: &[u8], logs: Option<&Logs>) -> Self {
        let bs = stream.block_size;
        let image = || Arc::new(MemDevice::from_contents(bs, image));
        let primary = image();
        let primary_dev = trace::device(
            Arc::clone(&primary) as Arc<dyn BlockDevice>,
            logs.map(|l| &l.primary_dev),
        );
        if workload != Workload::ClusterRw {
            // One loopback TCP connection to one replica thread.
            let replica_dev = image();
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
            let addr = listener.local_addr().expect("listener address");
            let (tid_tx, tid_rx) = mpsc::channel();
            let replica = spawn_replica(
                trace::device(
                    Arc::clone(&replica_dev) as Arc<dyn BlockDevice>,
                    logs.map(|l| &l.replica_dev[0]),
                ),
                move || {
                    let tcp = TcpTransport::accept(&listener, LinkModel::gigabit_lan())?;
                    Ok(Box::new(tcp) as Box<dyn Transport>)
                },
                logs.map(|l| Arc::clone(&l.replica_net[0])),
                None,
                tid_tx,
            );
            let tcp = TcpTransport::connect(addr, LinkModel::gigabit_lan())
                .expect("connect to the replica");
            let meter = Arc::clone(tcp.meter());
            let engine = EngineBuilder::new(primary_dev)
                .mode(ReplicationMode::Prins)
                .encode_workers(1)
                .ack_policy(AckPolicy::Window(32))
                .batch_frames(8)
                .coalesce(false)
                .replica(trace::transport(
                    Box::new(tcp),
                    logs.map(|l| &l.primary_net[0]),
                ))
                .build();
            return Rig::Engine(EngineRig {
                engine,
                primary,
                replica_dev,
                replica,
                tid: tid_rx.recv().unwrap_or(0),
                meter,
            });
        }
        // Two in-process channel replicas behind a serial ClusterGroup.
        let mut transports = Vec::new();
        let mut replica_devs = Vec::new();
        let mut replicas = Vec::new();
        let mut meters = Vec::new();
        let (tid_tx, tid_rx) = mpsc::channel();
        for idx in 0..2 {
            let (to_replica, at_replica) = channel_pair(LinkModel::gigabit_lan());
            let dev = image();
            replicas.push(spawn_replica(
                trace::device(
                    Arc::clone(&dev) as Arc<dyn BlockDevice>,
                    logs.map(|l| &l.replica_dev[idx]),
                ),
                move || Ok(Box::new(at_replica) as Box<dyn Transport>),
                logs.map(|l| Arc::clone(&l.replica_net[idx])),
                Some(REPLICA_CPU),
                tid_tx.clone(),
            ));
            meters.push(Arc::clone(to_replica.meter()));
            transports.push(trace::transport(
                Box::new(to_replica),
                logs.map(|l| &l.primary_net[idx]),
            ));
            replica_devs.push(dev);
        }
        let config = ClusterConfig {
            mode: ReplicationMode::Prins,
            ack_window: 1,
            ..ClusterConfig::default()
        };
        Rig::Cluster(ClusterRig {
            cluster: ClusterGroup::new(primary_dev, config, transports),
            primary,
            replica_devs,
            replicas,
            tids: (0..2).map(|_| tid_rx.recv().unwrap_or(0)).collect(),
            meters,
            offloaded: 0,
            rejected: 0,
        })
    }

    /// Issues `units` of `workload` (see [`Workload::timed_units`]).
    fn drive(
        &mut self,
        workload: Workload,
        stream: &Stream,
        shadow: &mut Shadow,
        client: &mut Client,
        units: usize,
    ) {
        match self {
            Rig::Engine(rig) => drive_engine(rig, workload, stream, shadow, client, units),
            Rig::Cluster(rig) => drive_cluster(rig, stream, shadow, client, units),
        }
    }

    /// Warms caches, pools and connections up before timing. Engine
    /// units end on a `flush()`, so the window starts with nothing in
    /// flight.
    pub fn warm_up(
        &mut self,
        workload: Workload,
        stream: &Stream,
        shadow: &mut Shadow,
        client: &mut Client,
        smoke: bool,
    ) {
        let units = workload.warmup_units(smoke);
        self.drive(workload, stream, shadow, client, units);
    }

    fn tids(&self) -> Vec<u64> {
        match self {
            Rig::Engine(rig) => vec![rig.tid],
            Rig::Cluster(rig) => rig.tids.clone(),
        }
    }

    fn wire_bytes_and_frames(&self) -> (u64, u64) {
        let meters: Vec<&Arc<TrafficMeter>> = match self {
            Rig::Engine(rig) => vec![&rig.meter],
            Rig::Cluster(rig) => rig.meters.iter().collect(),
        };
        meters.iter().fold((0, 0), |(b, f), m| {
            (b + m.wire_bytes_sent(), f + m.messages_sent())
        })
    }

    fn acked(&self) -> Vec<u64> {
        match self {
            Rig::Engine(_) => Vec::new(),
            Rig::Cluster(rig) => (0..rig.cluster.replica_count())
                .map(|i| rig.cluster.status(i).acked_writes)
                .collect(),
        }
    }

    /// The timed window: `units` of work, ended by the final barrier
    /// (`PrinsEngine::flush` is the last call of every engine unit; a
    /// cluster call returns after every replica acknowledged it).
    pub fn measure(
        &mut self,
        workload: Workload,
        stream: &Stream,
        shadow: &mut Shadow,
        client: &mut Client,
        units: usize,
    ) -> Window {
        client.start_timing(units);
        if let Rig::Cluster(rig) = self {
            (rig.offloaded, rig.rejected) = (0, 0);
        }
        let tids = self.tids();
        let acked0 = self.acked();
        let (bytes0, frames0) = self.wire_bytes_and_frames();
        let allocs0 = probe::allocs();
        let cpu0 = CpuSplit::now(&tids);
        let start = client.now();
        // The window runs in up to GROUPS chunks of whole commits (or
        // calls); the gated rate is the median of the chunks' rates, so
        // a host stall moves a few chunks, not the result.
        let step = match workload {
            Workload::ClusterRw => 1,
            _ => workload.writes_per_commit(),
        };
        let steps = units / step;
        let chunks = GROUPS.min(steps).max(1);
        let mut rates = Vec::with_capacity(chunks);
        for c in 0..chunks {
            let n = (steps * (c + 1) / chunks - steps * c / chunks) * step;
            let (t0, ops0) = (client.now(), client.ops());
            self.drive(workload, stream, shadow, client, n);
            let (t1, ops1) = (client.now(), client.ops());
            rates.push((ops1 - ops0) as f64 / ((t1 - t0) as f64 / 1e9));
        }
        let end = client.now();
        let cpu = CpuSplit::now(&tids).since(cpu0);
        let allocs = probe::allocs() - allocs0;
        let (bytes1, frames1) = self.wire_bytes_and_frames();
        client.timing = false;
        let writes = (client.write.len()
            + match workload {
                Workload::ClusterRw => client.commit.len(),
                _ => 0,
            }) as u64;
        // A cluster write that some replica never acknowledged failed,
        // even though quorum 0 let the call return Ok.
        for (a0, a1) in acked0.iter().zip(self.acked()) {
            client.failed += writes.saturating_sub(a1 - a0);
        }
        let (engine, replicas, offloaded, rejected) = match self {
            Rig::Engine(rig) => (Some(rig.engine.stats()), 1, 0, 0),
            Rig::Cluster(rig) => (
                None,
                rig.replicas.len(),
                std::mem::take(&mut rig.offloaded),
                std::mem::take(&mut rig.rejected),
            ),
        };
        Window {
            start,
            wall_ns: end - start,
            rate: median(&rates),
            ops: client.ops(),
            writes,
            reads: client.read.len() as u64,
            cpu,
            allocs,
            wire_bytes: bytes1 - bytes0,
            frames: frames1 - frames0,
            engine,
            replicas,
            offloaded,
            rejected,
        }
    }

    /// Stops the system and checks it: every replica byte-identical to
    /// the primary, and the primary identical to the shadow. Replication
    /// errors and failed shutdowns count in `client.failed`. Returns
    /// whether the images agree.
    pub fn finish(self, shadow: &Shadow, client: &mut Client) -> bool {
        let (primary, replica_devs) = match self {
            Rig::Engine(rig) => {
                client.failed += rig.engine.stats().replication_errors;
                if rig.engine.shutdown().is_err() {
                    client.failed += 1;
                }
                if !matches!(rig.replica.join(), Ok(Ok(_))) {
                    client.failed += 1;
                }
                (rig.primary, vec![rig.replica_dev])
            }
            Rig::Cluster(rig) => {
                drop(rig.cluster);
                for handle in rig.replicas {
                    if !matches!(handle.join(), Ok(Ok(_))) {
                        client.failed += 1;
                    }
                }
                (rig.primary, rig.replica_devs)
            }
        };
        let replicas_agree = replica_devs
            .iter()
            .all(|r| verify_consistent(&*primary, &**r).unwrap_or(false));
        replicas_agree && matches_shadow(&primary, shadow) && client.diverged == 0
    }
}

/// Whether every block of `device` equals the shadow's copy.
fn matches_shadow(device: &MemDevice, shadow: &Shadow) -> bool {
    let mut buf = device.geometry().block_size().zeroed();
    device
        .geometry()
        .range()
        .iter()
        .all(|lba| device.read_block(lba, &mut buf).is_ok() && buf == shadow.block(lba.index()))
}

/// Engine workloads: per commit, `reads_per_commit` reads of blocks
/// written earlier, `writes_per_commit` writes, then the `flush()`
/// barrier.
fn drive_engine(
    rig: &mut EngineRig,
    workload: Workload,
    stream: &Stream,
    shadow: &mut Shadow,
    client: &mut Client,
    writes: usize,
) {
    let per_commit = workload.writes_per_commit();
    for _ in 0..writes.div_ceil(per_commit) {
        for _ in 0..workload.reads_per_commit() {
            let Some(lba) = client.pick_read() else {
                break;
            };
            let mut buf = std::mem::take(&mut client.buf);
            if client
                .call(Kind::Read, || rig.engine.read_block(lba, &mut buf))
                .is_some()
                && buf != shadow.block(lba.index())
            {
                client.diverged += 1;
            }
            client.buf = buf;
        }
        for _ in 0..per_commit {
            let (lba, image) = client.next_write(stream, shadow);
            client.call(Kind::Write, || rig.engine.write_block(lba, image));
        }
        client.call(Kind::Commit, || rig.engine.flush());
    }
}

/// `cluster-rw`: each call is a read of a block written earlier or the
/// next write, by a seeded coin. At ack window 1 `ClusterGroup::write`
/// returns only after every replica acknowledged it, so the cluster has
/// no separate barrier: every 16th write is the transaction's commit,
/// timed with the (then empty) `drain()` as a commit call.
fn drive_cluster(
    rig: &mut ClusterRig,
    stream: &Stream,
    shadow: &mut Shadow,
    client: &mut Client,
    calls: usize,
) {
    let per_commit = Workload::ClusterRw.writes_per_commit();
    for _ in 0..calls {
        if client.rng.below(2) == 0 {
            if let Some(lba) = client.pick_read() {
                if let Some(out) = client.call(Kind::Read, || rig.cluster.read(lba)) {
                    if out.data != shadow.block(lba.index()) {
                        client.diverged += 1;
                    }
                    rig.offloaded += u64::from(out.source.is_some());
                    rig.rejected += out.rejected as u64;
                }
                continue;
            }
        }
        let (lba, image) = client.next_write(stream, shadow);
        let cluster = &mut rig.cluster;
        if client.next.is_multiple_of(per_commit) {
            client.call(Kind::Commit, || {
                let outcome = cluster.write(lba, image);
                cluster.drain();
                outcome
            });
        } else {
            client.call(Kind::Write, || cluster.write(lba, image));
        }
    }
}
