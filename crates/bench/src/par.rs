//! Deterministic intra-run parallelism: host-sharded execution with an
//! order-independent merge.
//!
//! The sweep engine (PR 7) proved the repo's determinism idiom across
//! *cells* — each worker owns thread-local telemetry and a fault
//! context, and outputs come back in canonical slot order regardless
//! of which worker finished first. This module applies the same idiom
//! *inside* a single experiment: a fleet of statistically independent
//! hosts is partitioned across a worker pool, every host draws from a
//! [`SimRng`] stream derived purely from its host index (so draws are
//! placement-independent: host 17 produces the same guests whether it
//! runs on worker 0 of 1 or worker 3 of 8), and the per-host results
//! fold back **in host-index order** on the orchestrating thread.
//!
//! # Worker ownership
//!
//! Each per-host closure invocation runs on a pool thread and owns:
//!
//! * its RNG streams — the closure derives them from the host index
//!   via [`host_stream`], never from worker identity;
//! * thread-local telemetry — the worker enables recording iff the
//!   orchestrating thread had it enabled, resets before each host, and
//!   snapshots after, so every host yields the registry an isolated
//!   serial run would have produced;
//! * a thread-local fault context — when the orchestrating thread has
//!   a plan armed, the worker arms a clone of that plan per host
//!   (backoff jitter seeded from the host index) and hands the
//!   accumulated [`FaultStats`] back for the host-ordered fold;
//! * thread-local allocation counters — `telemetry::alloc` metering
//!   inside the closure sees only this host's allocations, which is
//!   what makes a *per-worker* O(1)-memory gate meaningful.
//!
//! # Merge semantics
//!
//! The fold on the orchestrating thread is deterministic because it is
//! ordered by host index, not completion: counters add, peak gauges
//! take the max, timer histograms merge bucket-wise
//! ([`Registry::merge_from`]), fault counters add, and the `Vec` of
//! host values returns in host order so callers can fold
//! `ExitCensus`-style accumulators (and concatenate per-host report
//! sections) canonically. Histogram bucket counts are integers — their
//! merge is genuinely order-independent — while the float `sum` inside
//! each histogram is the one order-*sensitive* ingredient, which the
//! host-ordered fold pins down to the exact bytes of `--jobs 1`.
//!
//! Byte-identity across `--jobs` values is structural, not tested-in:
//! `--jobs 1` runs the *same* worker loop on a single pool thread, so
//! there is no separate serial code path to drift. [`map_ordered`] is
//! the crate's only worker pool: [`run_hosts`] wraps it with the
//! per-host state handling above, and the sweep runs its cells on it.
//!
//! [`Registry::merge_from`]: bmhive_telemetry::Registry::merge_from
//! [`FaultStats`]: bmhive_faults::FaultStats
//! [`SimRng`]: bmhive_sim::SimRng

use bmhive_faults as faults;
use bmhive_telemetry as telemetry;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    /// This thread's worker-pool width for host-sharded experiments.
    /// Defaults to 1 (serial); `repro --jobs N` raises it on the main
    /// thread only, so sweep workers and nested calls never
    /// oversubscribe.
    static JOBS: Cell<usize> = const { Cell::new(1) };
}

/// Sets the worker-pool width [`run_hosts`] uses on this thread.
/// Values are clamped to at least 1.
pub fn set_jobs(n: usize) {
    JOBS.with(|j| j.set(n.max(1)));
}

/// The worker-pool width configured for this thread (default 1).
pub fn jobs() -> usize {
    JOBS.with(|j| j.get())
}

/// Derives a per-host RNG stream from a base stream and the host
/// index — a pure function of `(base, host)` (SplitMix64 finalizer on
/// a golden-ratio-spread index), so draws are placement-independent:
/// the schedule of workers to hosts can change freely without moving a
/// single sample.
pub fn host_stream(base: u64, host: usize) -> u64 {
    let mut z = base ^ (host as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `f(i)` for every `i in 0..n` on a pool of `jobs` scoped worker
/// threads (clamped to `1..=n`) and returns the results in index
/// order.
///
/// Work is shared through an atomic next-index counter, so stragglers
/// never idle a worker, and each result lands in its own preallocated
/// slot, so completion order is irrelevant. `jobs = 1` runs the same
/// worker loop on a single pool thread: every width executes
/// byte-for-byte the same code, and the caller's thread-local state is
/// never touched by `f`.
pub fn map_ordered<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs.clamp(1, n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                *slots[i].lock().expect("slot poisoned") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every index below n was claimed and ran")
        })
        .collect()
}

/// What a pool worker hands back for one host: the closure's value
/// plus the thread-local state the orchestrator must fold in host
/// order.
struct HostRun<T> {
    value: T,
    telemetry: Option<telemetry::Snapshot>,
    fault_stats: Option<faults::FaultStats>,
}

/// Runs `f(host)` for every `host in 0..hosts` across this thread's
/// configured worker pool ([`jobs`]) via [`map_ordered`] and returns
/// the values in host order, having folded each host's telemetry and
/// fault statistics into the orchestrating thread's collectors in
/// host-index order.
///
/// `seed` feeds only the per-host fault-context backoff streams (via
/// [`host_stream`]); the closure derives its own simulation streams
/// from the host index.
pub fn run_hosts<T, F>(hosts: usize, seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let telemetry_on = telemetry::is_enabled();
    let plan = faults::armed_plan();
    let runs = map_ordered(hosts, jobs(), |host| {
        telemetry::set_enabled(telemetry_on);
        if telemetry_on {
            telemetry::reset();
        }
        if let Some(plan) = &plan {
            faults::arm(plan.clone(), host_stream(seed, host));
        }
        let value = f(host);
        let fault_stats = if plan.is_some() {
            faults::disarm()
        } else {
            None
        };
        let telemetry = if telemetry_on {
            let snap = telemetry::snapshot();
            telemetry::reset();
            Some(snap)
        } else {
            None
        };
        HostRun {
            value,
            telemetry,
            fault_stats,
        }
    });

    // Host-index-ordered fold on the orchestrating thread: the one
    // place float accumulation happens, pinned to a canonical order.
    runs.into_iter()
        .map(|run| {
            if let Some(snap) = &run.telemetry {
                telemetry::absorb(snap);
            }
            if let Some(stats) = &run.fault_stats {
                faults::absorb_stats(stats);
            }
            run.value
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmhive_sim::SimRng;

    #[test]
    fn host_stream_is_a_pure_function_of_base_and_host() {
        assert_eq!(host_stream(0xce15, 7), host_stream(0xce15, 7));
        assert_ne!(host_stream(0xce15, 7), host_stream(0xce15, 8));
        assert_ne!(host_stream(0xce15, 7), host_stream(0xf161, 7));
        // Neighbouring hosts must not collapse to the same stream for
        // any small fleet.
        let streams: std::collections::BTreeSet<u64> =
            (0..1024).map(|h| host_stream(0xce15, h)).collect();
        assert_eq!(streams.len(), 1024);
    }

    #[test]
    fn jobs_defaults_to_one_and_is_thread_local() {
        assert_eq!(jobs(), 1);
        set_jobs(6);
        assert_eq!(jobs(), 6);
        let seen = std::thread::spawn(jobs).join().unwrap();
        assert_eq!(seen, 1, "fresh threads must not inherit the pool width");
        set_jobs(0);
        assert_eq!(jobs(), 1, "set_jobs clamps to at least 1");
        set_jobs(1);
    }

    #[test]
    fn map_ordered_returns_results_in_index_order_at_any_width() {
        let square = |i: usize| {
            // Uneven work so completion order differs from index order.
            std::thread::sleep(std::time::Duration::from_micros(((i * 7) % 5) as u64 * 50));
            i * i
        };
        let expected: Vec<usize> = (0..37).map(|i| i * i).collect();
        for width in [1, 2, 4, 8] {
            assert_eq!(map_ordered(37, width, square), expected, "width {width}");
        }
    }

    #[test]
    fn map_ordered_handles_empty_and_narrow_inputs() {
        assert!(map_ordered(0, 4, |i| i).is_empty());
        assert!(map_ordered(0, 1, |i| i).is_empty());
        // Fewer items than workers: the pool narrows to `n` threads.
        assert_eq!(map_ordered(3, 8, |i| i + 10), vec![10, 11, 12]);
        // A zero width is clamped to one worker, not an empty pool.
        assert_eq!(map_ordered(2, 0, |i| i), vec![0, 1]);
    }

    #[test]
    fn run_hosts_returns_values_in_host_order_at_any_width() {
        let draws = |host: usize| {
            let mut rng = SimRng::with_stream(42, host_stream(0xce15, host));
            (0..64).map(|_| rng.next_u64()).collect::<Vec<u64>>()
        };
        set_jobs(1);
        let serial: Vec<Vec<u64>> = run_hosts(13, 42, draws);
        for width in [2, 4, 8] {
            set_jobs(width);
            let parallel = run_hosts(13, 42, draws);
            assert_eq!(serial, parallel, "width {width} diverged from serial");
        }
        set_jobs(1);
        assert_eq!(serial.len(), 13);
        assert_eq!(serial[3], draws(3), "host 3 must be placement-independent");
    }

    #[test]
    fn run_hosts_merges_worker_telemetry_in_host_order() {
        let body = |host: usize| {
            telemetry::counter("par.hosts_run", 1);
            telemetry::gauge_max("par.max_host", host as f64);
            telemetry::timer(
                "par.host_us",
                bmhive_sim::SimDuration::from_micros(host as u64 + 1),
            );
            telemetry::add_events(10);
            host
        };
        let run_at = |width: usize| {
            telemetry::set_enabled(true);
            telemetry::reset();
            set_jobs(width);
            let hosts = run_hosts(9, 7, body);
            set_jobs(1);
            let snap = telemetry::snapshot();
            telemetry::set_enabled(false);
            telemetry::reset();
            (hosts, snap)
        };
        let (hosts1, snap1) = run_at(1);
        let (hosts4, snap4) = run_at(4);
        assert_eq!(hosts1, (0..9).collect::<Vec<usize>>());
        assert_eq!(hosts1, hosts4);
        for snap in [&snap1, &snap4] {
            assert_eq!(snap.registry.counter("par.hosts_run"), 9);
            assert_eq!(snap.registry.gauge("par.max_host"), Some(8.0));
            assert_eq!(snap.registry.timer("par.host_us").unwrap().count(), 9);
            assert_eq!(snap.sim_events, 90);
        }
        assert!(
            (snap1.registry.timer("par.host_us").unwrap().mean()
                - snap4.registry.timer("par.host_us").unwrap().mean())
            .abs()
                == 0.0,
            "host-ordered histogram fold must be bit-identical across widths"
        );
    }

    #[test]
    fn run_hosts_leaves_the_callers_collector_intact() {
        telemetry::set_enabled(true);
        telemetry::reset();
        telemetry::counter("before", 3);
        set_jobs(2);
        let _ = run_hosts(4, 1, |h| {
            telemetry::counter("inside", 1);
            h
        });
        set_jobs(1);
        let snap = telemetry::snapshot();
        telemetry::set_enabled(false);
        telemetry::reset();
        assert_eq!(snap.registry.counter("before"), 3);
        assert_eq!(snap.registry.counter("inside"), 4);
    }

    #[test]
    fn run_hosts_zero_hosts_is_empty() {
        assert!(run_hosts(0, 0, |h| h).is_empty());
    }
}
