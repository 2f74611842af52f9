//! Property-based tests for the simulation kernel, on the seeded runner
//! in [`bmhive_sim::prop`].

use bmhive_sim::prop;
use bmhive_sim::stats::exact_percentile;
use bmhive_sim::{
    EventQueue, Histogram, MultiResource, Resource, SimDuration, SimRng, SimTime, Summary,
    TokenBucket,
};

const CASES: u64 = 256;

/// Events always pop in non-decreasing time order, whatever the
/// insertion order.
#[test]
fn event_queue_pops_sorted() {
    prop::check("event_queue_pops_sorted", CASES, |rng| {
        let times = prop::vec(rng, 1..200, |r| r.range(0, 1_000_000));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    });
}

/// Every inserted event comes back out exactly once.
#[test]
fn event_queue_conserves_events() {
    prop::check("event_queue_conserves_events", CASES, |rng| {
        let times = prop::vec(rng, 1..100, |r| r.range(0, 1_000));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        let mut seen: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..times.len()).collect::<Vec<_>>());
    });
}

/// Histogram percentile is monotone in p and bounded by min/max.
#[test]
fn histogram_percentile_monotone() {
    prop::check("histogram_percentile_monotone", CASES, |rng| {
        let values = prop::vec(rng, 1..500, |r| r.range_f64(0.0, 1e9));
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let mut last = 0.0;
        for p in [0.0, 10.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let q = h.percentile(p);
            assert!(q >= last - 1e-9, "p{} = {} < previous {}", p, q, last);
            assert!(q >= h.min() - 1e-9 && q <= h.max() + 1e-9);
            last = q;
        }
    });
}

/// Histogram mean matches the arithmetic mean exactly (it tracks the
/// true sum, not bucket midpoints).
#[test]
fn histogram_mean_is_exact() {
    prop::check("histogram_mean_is_exact", CASES, |rng| {
        let values = prop::vec(rng, 1..300, |r| r.range_f64(0.0, 1e6));
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let expect = values.iter().sum::<f64>() / values.len() as f64;
        assert!((h.mean() - expect).abs() < 1e-6 * expect.max(1.0));
    });
}

/// Merging two histograms equals recording the concatenation.
#[test]
fn histogram_merge_equals_concat() {
    prop::check("histogram_merge_equals_concat", CASES, |rng| {
        let a = prop::vec(rng, 0..200, |r| r.range_f64(0.0, 1e6));
        let b = prop::vec(rng, 0..200, |r| r.range_f64(0.0, 1e6));
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hc = Histogram::new();
        for &v in &a {
            ha.record(v);
            hc.record(v);
        }
        for &v in &b {
            hb.record(v);
            hc.record(v);
        }
        ha.merge(&hb);
        assert_eq!(ha.count(), hc.count());
        for p in [50.0, 99.0] {
            assert!((ha.percentile(p) - hc.percentile(p)).abs() < 1e-9);
        }
    });
}

/// Summary mean/min/max agree with direct computation.
#[test]
fn summary_matches_direct() {
    prop::check("summary_matches_direct", CASES, |rng| {
        let values = prop::vec(rng, 1..300, |r| r.range_f64(-1e6, 1e6));
        let mut s = Summary::new();
        for &v in &values {
            s.record(v);
        }
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!((s.mean() - mean).abs() < 1e-6);
        assert_eq!(s.min(), min);
        assert_eq!(s.max(), max);
    });
}

/// Token bucket conservation: admitting n tokens one at a time can
/// never finish earlier than (n - burst) / rate.
#[test]
fn token_bucket_never_exceeds_rate() {
    prop::check("token_bucket_never_exceeds_rate", CASES, |rng| {
        let rate = rng.range_f64(1.0, 1e6);
        let burst = rng.range_f64(1.0, 1e3);
        let n = rng.range(1, 500) as u32;
        let mut bucket = TokenBucket::new(rate, burst);
        let mut t = SimTime::ZERO;
        for _ in 0..n {
            t = bucket.acquire(t, 1.0);
        }
        let min_time = ((n as f64 - burst) / rate).max(0.0);
        assert!(
            t.as_secs_f64() >= min_time - 1e-6,
            "finished at {} but rate floor is {}",
            t.as_secs_f64(),
            min_time
        );
    });
}

/// Admit times from a token bucket are non-decreasing.
#[test]
fn token_bucket_admits_in_order() {
    prop::check("token_bucket_admits_in_order", CASES, |rng| {
        let rate = rng.range_f64(1.0, 1e5);
        let mut arrivals = prop::vec(rng, 1..100, |r| r.range(0, 1_000_000));
        arrivals.sort_unstable();
        let mut bucket = TokenBucket::new(rate, 4.0);
        let mut last_admit = SimTime::ZERO;
        let mut clock = SimTime::ZERO;
        for a in arrivals {
            // Requests may not be submitted before the bucket's own clock.
            clock = clock.max(SimTime::from_nanos(a)).max(last_admit);
            let admit = bucket.acquire(clock, 1.0);
            assert!(admit >= last_admit);
            last_admit = admit;
        }
    });
}

/// FCFS resource: completions are ordered and service is conserved.
#[test]
fn resource_conserves_service() {
    prop::check("resource_conserves_service", CASES, |rng| {
        let mut jobs = prop::vec(rng, 1..200, |r| (r.range(0, 1_000_000), r.range(1, 10_000)));
        jobs.sort_by_key(|&(a, _)| a);
        let mut r = Resource::new();
        let mut last_end = SimTime::ZERO;
        let mut total = SimDuration::ZERO;
        for (arrival, service) in jobs {
            let s = r.serve(
                SimTime::from_nanos(arrival),
                SimDuration::from_nanos(service),
            );
            assert!(s.start >= SimTime::from_nanos(arrival));
            assert!(s.end >= last_end);
            assert_eq!(
                s.end.duration_since(s.start),
                SimDuration::from_nanos(service)
            );
            last_end = s.end;
            total += SimDuration::from_nanos(service);
        }
        assert_eq!(r.busy_time(), total);
    });
}

/// A k-server pool is never slower than a single server and never
/// faster than k ideal servers.
#[test]
fn multi_resource_bounded_by_ideal() {
    prop::check("multi_resource_bounded_by_ideal", CASES, |rng| {
        let k = rng.range(1, 8) as usize;
        let services = prop::vec(rng, 1..100, |r| r.range(1, 10_000));
        let mut pool = MultiResource::new(k);
        let mut single = Resource::new();
        let mut makespan_pool = SimTime::ZERO;
        let mut makespan_single = SimTime::ZERO;
        let mut total = 0u64;
        for &s in &services {
            let d = SimDuration::from_nanos(s);
            makespan_pool = makespan_pool.max(pool.serve(SimTime::ZERO, d).end);
            makespan_single = makespan_single.max(single.serve(SimTime::ZERO, d).end);
            total += s;
        }
        assert!(makespan_pool <= makespan_single);
        // Lower bound: total work / k.
        assert!(makespan_pool.as_nanos() >= total / k as u64);
    });
}

/// Deterministic RNG: two generators with the same seed produce the
/// same zipf/exp/normal draws.
#[test]
fn rng_is_reproducible() {
    prop::check("rng_is_reproducible", CASES, |rng| {
        let seed = rng.next_u64();
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..20 {
            assert_eq!(a.next_u64(), b.next_u64());
            assert_eq!(a.zipf(1000, 0.99), b.zipf(1000, 0.99));
            assert!((a.exp(3.0) - b.exp(3.0)).abs() < 1e-12);
        }
    });
}

/// Exact percentile returns an element of the sample set.
#[test]
fn exact_percentile_is_order_statistic() {
    prop::check("exact_percentile_is_order_statistic", CASES, |rng| {
        let values = prop::vec(rng, 1..200, |r| r.range_f64(0.0, 1e6));
        let p = rng.range_f64(0.0, 100.0);
        let v = exact_percentile(&values, p);
        assert!(values.contains(&v));
    });
}
