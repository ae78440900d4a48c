//! Spans recorded from the benchmark's own files: wrappers around the
//! program's `Transport`s and `BlockDevice`s, plus the client's calls.
//! Spans stay in memory until the run ends.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use prins_block::{BlockDevice, Geometry, Lba};
use prins_net::{NetError, TrafficMeter, Transport};

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// The client's write call (`PrinsEngine::write_block`,
    /// `ClusterGroup::write`).
    Write,
    /// The client's barrier (`PrinsEngine::flush`) or commit write.
    Commit,
    /// The client's read call.
    Read,
    DevRead,
    DevWrite,
    Send,
    Recv,
}

/// One timed call, in nanoseconds since the log's epoch. `tag` is the
/// first byte of a sent message (its frame type), else 0.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub kind: Kind,
    pub tag: u8,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// The spans of one wrapper; each wrapper is driven by one thread, so
/// the lock is uncontended and spans come out in time order.
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new(epoch: Instant, capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            epoch,
            spans: Mutex::new(Vec::with_capacity(capacity)),
        })
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span that began at `start` and ends now.
    pub fn push(&self, kind: Kind, tag: u8, start: u64) {
        let end = self.now();
        self.record(kind, tag, start, end);
    }

    pub fn record(&self, kind: Kind, tag: u8, start: u64, end: u64) {
        self.spans.lock().expect("span log lock").push(Span {
            kind,
            tag,
            start,
            end,
        });
    }

    /// Spans that lie within `[from, to]`.
    pub fn within(&self, from: u64, to: u64) -> Vec<Span> {
        let spans = self.spans.lock().expect("span log lock");
        let first = spans.partition_point(|s| s.start < from);
        spans[first..]
            .iter()
            .take_while(|s| s.start <= to)
            .filter(|s| s.end <= to)
            .copied()
            .collect()
    }
}

/// A `Transport` recording a span per send and receive.
pub struct TracedTransport {
    inner: Box<dyn Transport>,
    log: Arc<SpanLog>,
}

impl TracedTransport {
    pub fn new(inner: Box<dyn Transport>, log: Arc<SpanLog>) -> Self {
        Self { inner, log }
    }
}

impl Transport for TracedTransport {
    fn send(&self, msg: &[u8]) -> Result<(), NetError> {
        let t = self.log.now();
        let r = self.inner.send(msg);
        self.log
            .push(Kind::Send, msg.first().copied().unwrap_or(0), t);
        r
    }

    fn recv(&self) -> Result<Vec<u8>, NetError> {
        let t = self.log.now();
        let r = self.inner.recv();
        self.log.push(Kind::Recv, 0, t);
        r
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        let t = self.log.now();
        let r = self.inner.recv_timeout(timeout);
        self.log.push(Kind::Recv, 0, t);
        r
    }

    fn meter(&self) -> &Arc<TrafficMeter> {
        self.inner.meter()
    }
}

/// A boxed transport as a sized `Transport`, for the program's generic
/// replica loop.
pub struct Wire(pub Box<dyn Transport>);

impl Transport for Wire {
    fn send(&self, msg: &[u8]) -> Result<(), NetError> {
        self.0.send(msg)
    }

    fn recv(&self) -> Result<Vec<u8>, NetError> {
        self.0.recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, NetError> {
        self.0.recv_timeout(timeout)
    }

    fn meter(&self) -> &Arc<TrafficMeter> {
        self.0.meter()
    }
}

/// A `BlockDevice` recording a span per block read and write.
pub struct TracedDevice {
    inner: Arc<dyn BlockDevice>,
    log: Arc<SpanLog>,
}

impl TracedDevice {
    pub fn new(inner: Arc<dyn BlockDevice>, log: Arc<SpanLog>) -> Self {
        Self { inner, log }
    }
}

impl BlockDevice for TracedDevice {
    fn geometry(&self) -> Geometry {
        self.inner.geometry()
    }

    fn read_block(&self, lba: Lba, buf: &mut [u8]) -> prins_block::Result<()> {
        let t = self.log.now();
        let r = self.inner.read_block(lba, buf);
        self.log.push(Kind::DevRead, 0, t);
        r
    }

    fn write_block(&self, lba: Lba, buf: &[u8]) -> prins_block::Result<()> {
        let t = self.log.now();
        let r = self.inner.write_block(lba, buf);
        self.log.push(Kind::DevWrite, 0, t);
        r
    }

    fn flush(&self) -> prins_block::Result<()> {
        self.inner.flush()
    }
}

/// Wraps `dev` in a [`TracedDevice`] when `log` is set.
pub fn device(dev: Arc<dyn BlockDevice>, log: Option<&Arc<SpanLog>>) -> Arc<dyn BlockDevice> {
    match log {
        Some(log) => Arc::new(TracedDevice::new(dev, Arc::clone(log))),
        None => dev,
    }
}

/// Wraps `t` in a [`TracedTransport`] when `log` is set.
pub fn transport(t: Box<dyn Transport>, log: Option<&Arc<SpanLog>>) -> Box<dyn Transport> {
    match log {
        Some(log) => Box::new(TracedTransport::new(t, Arc::clone(log))),
        None => t,
    }
}

/// For each parent span, the time its children cover. Both lists are in
/// start order and come from one thread, so children nest inside parents
/// and never overlap each other.
pub fn child_time(parents: &[Span], children: &[Span]) -> Vec<u64> {
    let mut out = Vec::with_capacity(parents.len());
    let mut c = 0;
    for p in parents {
        while c < children.len() && children[c].start < p.start {
            c += 1;
        }
        let mut covered = 0;
        while c < children.len() && children[c].end <= p.end {
            covered += children[c].dur();
            c += 1;
        }
        out.push(covered);
    }
    out
}

/// Merges several start-ordered span lists into one.
pub fn merged(lists: &[Vec<Span>]) -> Vec<Span> {
    let mut all: Vec<Span> = lists.iter().flatten().copied().collect();
    all.sort_by_key(|s| s.start);
    all
}

/// Mean duration of the spans of `kind`, in nanoseconds.
pub fn mean_dur(spans: &[Span], kind: Kind) -> f64 {
    let (n, sum) = spans
        .iter()
        .filter(|s| s.kind == kind)
        .fold((0u64, 0u64), |(n, sum), s| (n + 1, sum + s.dur()));
    ratio(sum as f64, n as f64)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
