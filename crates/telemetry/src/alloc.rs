//! A counting global allocator: the peak-RSS proxy behind the
//! streaming-census memory gate.
//!
//! The workspace builds with no registry access, so heavyweight heap
//! profilers are out; what the `fleet_scale` experiment needs is much
//! smaller anyway — *"did the bytes this thread allocated grow with
//! the guest count?"*. [`CountingAlloc`] wraps [`System`] and keeps a
//! **thread-local** live-bytes counter plus a high-water mark, so a
//! measurement taken around a single-threaded experiment body is a
//! pure function of that body's allocation sequence: deterministic,
//! and unperturbed by sibling sweep workers (a process-global counter
//! would race across worker threads and break the sweep's
//! byte-identity contract).
//!
//! Binaries opt in:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: bmhive_telemetry::alloc::CountingAlloc =
//!     bmhive_telemetry::alloc::CountingAlloc::system();
//! ```
//!
//! The `repro` binary and the fleet-scale integration test install it;
//! everything else pays nothing (the module is just code until a
//! binary opts in). [`installed`] probes with one throwaway box so
//! measurement code can render an honest `gate skipped` instead of a
//! vacuous pass when the counters are dead.
//!
//! Live bytes are signed: a thread may free memory another thread
//! allocated (or memory allocated before a [`reset_peak`]), so the
//! counter can legitimately dip below zero; the *delta* between a
//! [`measure_peak`] window's start point and the subsequent peak is
//! what the gate reads, and that is non-negative by construction.
//!
//! Alongside the byte counters, the same hooks keep thread-local
//! allocation/deallocation *call counts* ([`alloc_count`] /
//! [`dealloc_count`], windowed by [`measure_allocs`]). Bytes answer
//! "does memory grow with scale?" (the `fleet_scale` O(1) gate);
//! counts answer "does steady state touch the allocator at all?" (the
//! `allocs_per_event` bench gate). The two are deliberately
//! independent so neither gate's contract moves when the other's
//! instrumentation changes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-initialized Cells: no lazy init and no destructor, so the
    // allocator's hot path can touch them without re-entering itself.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static DEALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// A [`System`]-backed allocator that maintains the thread-local
/// live/peak byte counters this module exposes.
pub struct CountingAlloc {
    _private: (),
}

impl CountingAlloc {
    /// The system allocator with counting enabled.
    pub const fn system() -> Self {
        CountingAlloc { _private: () }
    }
}

#[inline]
fn on_alloc(bytes: usize) {
    ALLOC_COUNT.with(|n| n.set(n.get().wrapping_add(1)));
    LIVE_BYTES.with(|live| {
        let now = live.get().saturating_add(bytes as i64);
        live.set(now);
        PEAK_BYTES.with(|peak| {
            if now > peak.get() {
                peak.set(now);
            }
        });
    });
}

#[inline]
fn on_dealloc(bytes: usize) {
    DEALLOC_COUNT.with(|n| n.set(n.get().wrapping_add(1)));
    LIVE_BYTES.with(|live| live.set(live.get().saturating_sub(bytes as i64)));
}

// SAFETY: defers every allocation to `System` unchanged; the counter
// updates touch only const-initialized thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Bytes currently live on this thread (allocated minus freed since
/// the thread started). Signed: cross-thread frees can push it
/// negative.
pub fn live_bytes() -> i64 {
    LIVE_BYTES.with(|live| live.get())
}

/// This thread's high-water mark of [`live_bytes`].
pub fn peak_bytes() -> i64 {
    PEAK_BYTES.with(|peak| peak.get())
}

/// Resets the high-water mark to the current live count, starting a
/// fresh measurement window.
pub fn reset_peak() {
    PEAK_BYTES.with(|peak| peak.set(live_bytes()));
}

/// Whether a [`CountingAlloc`] is actually installed as the global
/// allocator in this binary. Probes with one heap allocation and
/// checks whether the counters moved.
pub fn installed() -> bool {
    let before = peak_bytes();
    reset_peak();
    let live_before = live_bytes();
    let probe = std::hint::black_box(Box::new([0u8; 256]));
    let moved = live_bytes() > live_before;
    drop(probe);
    // Restore a peak at least as high as the caller saw before the
    // probe, so the probe itself never lowers an observed high-water
    // mark below a prior reading.
    PEAK_BYTES.with(|peak| peak.set(peak.get().max(before)));
    moved
}

/// Measures the peak allocation *delta* of `f` on this thread: the
/// high-water mark it reached minus the live bytes when it started.
/// Returns `(result, peak_delta_bytes)`; the delta is 0 when no
/// counting allocator is installed.
pub fn measure_peak<R>(f: impl FnOnce() -> R) -> (R, u64) {
    reset_peak();
    let start = live_bytes();
    let result = f();
    let delta = (peak_bytes() - start).max(0) as u64;
    (result, delta)
}

/// Heap allocations performed by this thread since it started. A
/// `realloc` counts as one allocation (and one deallocation); byte
/// sizes are tracked separately by [`live_bytes`]/[`peak_bytes`].
pub fn alloc_count() -> u64 {
    ALLOC_COUNT.with(|n| n.get())
}

/// Heap deallocations performed by this thread since it started.
pub fn dealloc_count() -> u64 {
    DEALLOC_COUNT.with(|n| n.get())
}

/// Measures how many allocations `f` performs on this thread: the
/// [`alloc_count`] delta across the call. Returns `(result, allocs)`;
/// the count is 0 when no counting allocator is installed. Mirrors
/// [`measure_peak`], but counts calls instead of bytes — the signal
/// the per-experiment allocation caps in `tests/steady_alloc.rs` read,
/// where one retained warm buffer and one million recycled events look
/// the same size-wise but differ by a million calls.
pub fn measure_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let start = alloc_count();
    let result = f();
    let allocs = alloc_count().wrapping_sub(start);
    (result, allocs)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary does not install the allocator, so only the
    // dead-counter behaviour is checkable here; the live behaviour is
    // covered by the fleet-scale integration test, which does install
    // it.

    #[test]
    fn uninstalled_counters_read_dead() {
        assert!(!installed());
        let (value, delta) = measure_peak(|| vec![0u8; 1 << 20].len());
        assert_eq!(value, 1 << 20);
        assert_eq!(delta, 0);
    }

    #[test]
    fn uninstalled_alloc_counts_read_dead() {
        let (value, allocs) = measure_allocs(|| vec![0u8; 1 << 16].len());
        assert_eq!(value, 1 << 16);
        assert_eq!(allocs, 0);
        assert_eq!(alloc_count(), 0);
        assert_eq!(dealloc_count(), 0);
    }
}
