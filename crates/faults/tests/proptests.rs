//! Property-based tests for the retry/backoff policy (the invariants
//! every recovery path leans on, over arbitrary policies and seeds) and
//! for fault-plan parsing.

use bmhive_faults::{canned, FaultPlan, RetryPolicy, CANNED_PLAN_NAMES, MAX_FACTOR};
use bmhive_sim::{prop, SimDuration, SimRng};

const CASES: u64 = 256;

/// Arbitrary-but-valid policies: base 1 ns – 1 ms, cap ≥ base, up to
/// 32 attempts.
fn policy(rng: &mut SimRng) -> RetryPolicy {
    let base = rng.range(1, 1_000_000);
    let extra = rng.range(0, 4_000_000);
    let attempts = rng.range(1, 32) as u32;
    RetryPolicy::new(
        SimDuration::from_nanos(base),
        SimDuration::from_nanos(base + extra),
        attempts,
    )
}

/// The envelope never decreases with the attempt number and never
/// exceeds the cap.
#[test]
fn envelope_is_monotone_and_bounded() {
    prop::check("envelope_is_monotone_and_bounded", CASES, |rng| {
        let policy = policy(rng);
        let mut prev = SimDuration::ZERO;
        for attempt in 1..=policy.max_attempts {
            let env = policy.envelope(attempt);
            assert!(env >= prev, "attempt {attempt}: {env} < {prev}");
            assert!(env <= policy.cap);
            assert!(env >= policy.base);
            prev = env;
        }
    });
}

/// Every jittered delay stays inside the equal-jitter band
/// [envelope/2, envelope].
#[test]
fn jitter_stays_in_the_equal_jitter_band() {
    prop::check("jitter_stays_in_the_equal_jitter_band", CASES, |rng| {
        let policy = policy(rng);
        let mut jitter = SimRng::new(rng.next_u64());
        for attempt in 1..=policy.max_attempts {
            let env = policy.envelope(attempt);
            let d = policy.jittered(attempt, &mut jitter);
            assert!(d >= env / 2, "below band: {d} < {env}/2");
            assert!(d <= env, "above band: {d} > {env}");
        }
    });
}

/// The same seed always produces the same delay sequence; the
/// schedule is a pure function of (policy, seed).
#[test]
fn schedule_is_deterministic_per_seed() {
    prop::check("schedule_is_deterministic_per_seed", CASES, |rng| {
        let policy = policy(rng);
        let seed = rng.next_u64();
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for attempt in 1..=policy.max_attempts {
            assert_eq!(
                policy.jittered(attempt, &mut a),
                policy.jittered(attempt, &mut b)
            );
        }
    });
}

/// The worst-case total bounds any real schedule: summing the
/// maximum of each attempt's band can never be exceeded.
#[test]
fn worst_case_total_bounds_every_schedule() {
    prop::check("worst_case_total_bounds_every_schedule", CASES, |rng| {
        let policy = policy(rng);
        let mut jitter = SimRng::new(rng.next_u64());
        let mut total = SimDuration::ZERO;
        for attempt in 1..=policy.max_attempts {
            total += policy.jittered(attempt, &mut jitter);
        }
        assert!(total <= policy.worst_case_total());
    });
}

/// Fault-plan JSON is user input: any mutation of a canned plan either
/// loads or fails with a typed error, and a plan that loads has a
/// horizon and only finite factors within [`MAX_FACTOR`].
#[test]
fn mutated_plan_json_never_panics() {
    const EXTREMES: [&str; 7] = [
        "1e17",
        "1e300",
        "1e400",
        "-1",
        "18446744073709551616",
        "1e-400",
        "0",
    ];
    prop::check("mutated_plan_json_never_panics", CASES, |rng| {
        let name = rng.choose(&CANNED_PLAN_NAMES);
        let mut doc = canned(name).unwrap().to_json().into_bytes();
        for _ in 0..rng.range(1, 5) {
            let pos = rng.below(doc.len() as u64 + 1) as usize;
            match rng.below(4) {
                0 if pos < doc.len() => doc[pos] ^= 1 << rng.below(8),
                1 => doc.insert(pos, rng.next_u32() as u8),
                2 if pos < doc.len() => {
                    doc.remove(pos);
                }
                _ => {
                    // Swap the number at or after `pos` for an extreme one.
                    let Some(start) = doc[pos..].iter().position(u8::is_ascii_digit) else {
                        continue;
                    };
                    let start = pos + start;
                    let len = doc[start..]
                        .iter()
                        .take_while(|&&b| b.is_ascii_digit() || b == b'.')
                        .count();
                    let extreme = rng.choose(&EXTREMES).as_bytes();
                    doc.splice(start..start + len, extreme.iter().copied());
                }
            }
        }
        let doc = String::from_utf8_lossy(&doc);
        if let Ok(plan) = FaultPlan::from_json(&doc) {
            let _ = plan.horizon();
            for e in plan.events() {
                assert!(
                    e.factor.is_finite() && (1.0..=MAX_FACTOR).contains(&e.factor),
                    "accepted factor {}",
                    e.factor
                );
            }
        }
    });
}
