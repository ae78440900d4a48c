//! Outside-in probes: an allocation counter, CPU time from `/proc`, and
//! peak resident memory. None of them needs the program's cooperation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The system allocator, counting allocation calls while enabled.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Turns allocation counting on or off. Off, each allocation pays one
/// relaxed load of a flag that is never written while threads run.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocation calls (`alloc`, `alloc_zeroed`, `realloc`) counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/*/stat` (`USER_HZ`, fixed at 100 on Linux).
const TICKS_PER_SEC: u64 = 100;

/// User plus system CPU time in microseconds from a `/proc/*/stat` file.
fn stat_cpu_us(path: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    // The command name is parenthesised and may hold spaces; the fields
    // after its closing parenthesis start at field 3 (`state`).
    let rest = &text[text.rfind(')')? + 2..];
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) * 1_000_000 / TICKS_PER_SEC)
}

/// CPU time of the whole process, all threads, in microseconds.
pub fn process_cpu_us() -> u64 {
    stat_cpu_us("/proc/self/stat").unwrap_or(0)
}

/// CPU time of the calling thread in microseconds.
pub fn thread_cpu_us() -> u64 {
    stat_cpu_us("/proc/thread-self/stat").unwrap_or(0)
}

/// CPU time of thread `tid` of this process in microseconds (0 once the
/// thread has exited).
pub fn task_cpu_us(tid: u64) -> u64 {
    stat_cpu_us(&format!("/proc/self/task/{tid}/stat")).unwrap_or(0)
}

/// The calling thread's kernel thread id, read from the
/// `/proc/thread-self` link (`<pid>/task/<tid>`).
pub fn current_tid() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU split of one measured window, in microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuSplit {
    pub process: u64,
    pub client: u64,
    pub replicas: u64,
}

impl CpuSplit {
    /// Reads the process, the calling (client) thread and the replica
    /// threads `tids` now.
    pub fn now(tids: &[u64]) -> Self {
        Self {
            process: process_cpu_us(),
            client: thread_cpu_us(),
            replicas: tids.iter().map(|&t| task_cpu_us(t)).sum(),
        }
    }

    /// CPU spent between `start` and `self`.
    pub fn since(self, start: Self) -> Self {
        Self {
            process: self.process.saturating_sub(start.process),
            client: self.client.saturating_sub(start.client),
            replicas: self.replicas.saturating_sub(start.replicas),
        }
    }

    /// Everything that is neither the client nor a replica thread: the
    /// engine's encode and sender threads.
    pub fn engine(&self) -> u64 {
        self.process.saturating_sub(self.client + self.replicas)
    }
}

extern "C" {
    // From the C library std already links; `mask` is a `cpu_set_t`
    // prefix of `cpusetsize` bytes.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to CPU `cpu` (< 64). Returns whether the
/// kernel accepted it; a machine without that CPU leaves the thread
/// where it was.
pub fn pin_to_cpu(cpu: usize) -> bool {
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a live u64 and the size passed is its size; pid 0
    // names the calling thread. The call only reads the mask.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}
