//! A small seeded property runner.
//!
//! [`check`] runs a property over a fixed budget of cases. Case `i`
//! draws its inputs from `SimRng::with_stream(FIXED_SEED, i)`, so every
//! run of a suite sees the same inputs and a failing case can be replayed
//! on its own with [`case_rng`]. Properties are plain closures that
//! `assert!`; there is no shrinking.
//!
//! # Example
//!
//! ```
//! use bmhive_sim::prop;
//!
//! prop::check("sum_commutes", 64, |rng| {
//!     let (a, b) = (rng.below(1_000), rng.below(1_000));
//!     assert_eq!(a + b, b + a);
//! });
//! ```

use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};

use crate::SimRng;

/// The seed every case stream is derived from.
pub const FIXED_SEED: u64 = 0x6d68_6976_6570_726f;

/// The generator case `case` of every property draws from.
pub fn case_rng(case: u64) -> SimRng {
    SimRng::with_stream(FIXED_SEED, case)
}

/// Runs `property` on cases `0..cases`.
///
/// # Panics
///
/// Re-panics on the first failing case with a message naming the
/// property, the case index and the stream to replay it from.
pub fn check(name: &str, cases: u64, mut property: impl FnMut(&mut SimRng)) {
    for case in 0..cases {
        let mut rng = case_rng(case);
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            let cause = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            panic!(
                "property `{name}` failed at case {case} \
                 (replay with bmhive_sim::prop::case_rng({case}), \
                 i.e. SimRng::with_stream({FIXED_SEED:#x}, {case})): {cause}"
            );
        }
    }
}

/// A vector whose length is drawn uniformly from `len`, each item drawn
/// by `item`.
///
/// # Panics
///
/// Panics if `len` is empty.
pub fn vec<T>(
    rng: &mut SimRng,
    len: Range<usize>,
    mut item: impl FnMut(&mut SimRng) -> T,
) -> Vec<T> {
    let n = rng.range(len.start as u64, len.end as u64) as usize;
    (0..n).map(|_| item(rng)).collect()
}

/// Uniformly random bytes, with a length drawn uniformly from `len`.
///
/// # Panics
///
/// Panics if `len` is empty.
pub fn bytes(rng: &mut SimRng, len: Range<usize>) -> Vec<u8> {
    vec(rng, len, |r| r.next_u32() as u8)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panic_message(f: impl FnOnce()) -> String {
        let payload = panic::catch_unwind(AssertUnwindSafe(f)).expect_err("should panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    #[test]
    fn failing_property_names_itself_and_the_case() {
        let mut calls = 0;
        let msg = panic_message(|| {
            check("fails_from_case_three", 10, |_| {
                calls += 1;
                assert!(calls <= 3, "boom");
            })
        });
        assert!(msg.contains("`fails_from_case_three`"), "{msg}");
        assert!(msg.contains("case 3 "), "{msg}");
        assert!(msg.contains("case_rng(3)"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn failing_case_replays_from_its_stream() {
        let mut failing = 0;
        let msg = panic_message(|| {
            check("first_odd_draw", 100, |rng| {
                failing = rng.next_u64();
                assert!(failing % 2 == 0);
            })
        });
        let case: u64 = msg
            .split("case ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .expect("case index in message");
        assert_eq!(case_rng(case).next_u64(), failing);
    }

    #[test]
    fn runs_draw_identical_inputs() {
        let draw = || {
            let mut seen = Vec::new();
            check("record", 32, |rng| seen.push(bytes(rng, 0..16)));
            seen
        };
        let first = draw();
        assert_eq!(first.len(), 32);
        assert_eq!(first, draw());
        assert!(first.windows(2).any(|w| w[0] != w[1]), "cases differ");
    }

    #[test]
    fn zero_cases_run_nothing() {
        let mut runs = 0;
        check("never", 0, |_| runs += 1);
        assert_eq!(runs, 0);
    }

    #[test]
    fn vec_lengths_stay_in_range() {
        check("vec_len", 64, |rng| {
            let v = vec(rng, 3..7, |r| r.below(10));
            assert!((3..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        });
    }
}
