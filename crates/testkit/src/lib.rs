//! # sp-testkit
//!
//! A tiny, std-only, fully deterministic property-testing harness. The
//! workspace builds offline with no external crates, so the randomized
//! tests that previously ran under `proptest` run under [`check`]
//! instead: a fixed number of cases, each driven by a [`SmallRng`]
//! seeded from the case index, so every run — local or CI — executes
//! the identical case list. A failing case reports its seed; replay it
//! with [`replay`] while debugging.
//!
//! No shrinking: cases are kept small by construction instead (the
//! generator helpers take explicit size ranges).

#![forbid(unsafe_code)]

pub use sp_trace::SmallRng;

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// The seed for case `i` of a [`check`] run. Mixing a large odd constant
/// keeps neighbouring cases' SplitMix64 streams unrelated.
pub fn case_seed(case: u64) -> u64 {
    0x5EED_CAFE_F00D_0001u64.wrapping_add(case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Run `f` for `cases` deterministic random cases. Panics propagate,
/// prefixed (on stderr) with the failing case index and seed.
pub fn check<F>(cases: u64, f: F)
where
    F: Fn(&mut SmallRng),
{
    for case in 0..cases {
        let seed = case_seed(case);
        let mut rng = SmallRng::seed_from_u64(seed);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| f(&mut rng))) {
            eprintln!("property failed on case {case}/{cases} (seed {seed:#x}); replay with sp_testkit::replay({seed:#x}, ...)");
            resume_unwind(panic);
        }
    }
}

/// Run `f` once with the given seed — for replaying a failure printed by
/// [`check`].
pub fn replay<F>(seed: u64, f: F)
where
    F: Fn(&mut SmallRng),
{
    let mut rng = SmallRng::seed_from_u64(seed);
    f(&mut rng);
}

/// A vector of `len` ∈ `len_range` elements drawn from `gen`.
pub fn gen_vec<T>(
    rng: &mut SmallRng,
    len_range: Range<usize>,
    mut gen: impl FnMut(&mut SmallRng) -> T,
) -> Vec<T> {
    let len = rng.gen_range(len_range);
    (0..len).map(|_| gen(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn check_runs_the_requested_cases_deterministically() {
        let sum_a = AtomicU64::new(0);
        check(16, |rng| {
            sum_a.fetch_add(rng.next_u64() >> 32, Ordering::Relaxed);
        });
        let sum_b = AtomicU64::new(0);
        check(16, |rng| {
            sum_b.fetch_add(rng.next_u64() >> 32, Ordering::Relaxed);
        });
        assert_eq!(sum_a.load(Ordering::Relaxed), sum_b.load(Ordering::Relaxed));
        assert_ne!(sum_a.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn failures_propagate() {
        let r = catch_unwind(|| check(4, |_| panic!("boom")));
        assert!(r.is_err());
    }

    #[test]
    fn replay_reproduces_a_case() {
        let first = AtomicU64::new(0);
        check(1, |rng| first.store(rng.next_u64(), Ordering::Relaxed));
        let again = AtomicU64::new(0);
        replay(case_seed(0), |rng| {
            again.store(rng.next_u64(), Ordering::Relaxed)
        });
        assert_eq!(first.load(Ordering::Relaxed), again.load(Ordering::Relaxed));
    }

    #[test]
    fn gen_vec_respects_bounds() {
        check(32, |rng| {
            let v = gen_vec(rng, 2..7, |r| r.gen_range(0u64..10));
            assert!((2..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        });
    }
}
