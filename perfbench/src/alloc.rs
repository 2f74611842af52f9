//! Process-wide allocation counting for `allocs_per_op`.
//!
//! The repository's own `CountingAlloc` keeps *thread-local* counters,
//! which miss the `run_hosts` worker threads the `paper_regen` workload
//! fans out to. [`BenchAlloc`] wraps it, so the per-thread counters the
//! `fleet_scale` memory gate reads keep working, and adds one global
//! atomic call count that sees every thread.

use bmhive_telemetry::alloc::CountingAlloc;
use std::alloc::{GlobalAlloc, Layout};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The benchmark binary's global allocator.
pub struct BenchAlloc {
    inner: CountingAlloc,
}

impl BenchAlloc {
    /// The system allocator with both counters enabled.
    pub const fn new() -> Self {
        BenchAlloc {
            inner: CountingAlloc::system(),
        }
    }
}

impl Default for BenchAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every method forwards its arguments unchanged to
// `CountingAlloc`, itself a sound `GlobalAlloc` over `System`; the only
// addition is a relaxed counter increment, which publishes no memory.
unsafe impl GlobalAlloc for BenchAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { self.inner.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { self.inner.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (which forwards to
        // `inner`) with `layout`, as the caller guarantees.
        unsafe { self.inner.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { self.inner.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls (alloc, alloc_zeroed and realloc) on every thread
/// since the process started. Reads 0 when [`BenchAlloc`] is not the
/// global allocator, as in unit tests.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The process's peak resident set in MiB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
