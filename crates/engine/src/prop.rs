//! Seeded property checks: the workspace's one randomised-test mechanism.
//!
//! A property is a closure that draws its inputs from a [`Case`] — a
//! [`SplitMix64`] stream — and panics when it does not hold. [`check`]
//! runs it on a fixed number of seeds derived from the property's name,
//! so every run explores the same cases and a failure reproduces by
//! re-running the test.
//!
//! A failing case shrinks by bisecting its prefix. Step sequences are
//! drawn through [`Case::steps`], and a replay of the same seed with a
//! step cap draws exactly the same first steps, then stops. The runner
//! bisects the cap down to the shortest prefix that still fails, prints
//! the seed and that step count, and replays the prefix outside any
//! `catch_unwind`, so the test fails with the property's own panic,
//! location and backtrace. [`replay`] runs one such case by hand.
//!
//! # Examples
//!
//! ```
//! use miopt_engine::prop;
//!
//! prop::check("reverse_twice_is_the_identity", 64, |c| {
//!     let xs: Vec<u64> = (0..c.steps(0..50)).map(|_| c.below(1000)).collect();
//!     let mut ys = xs.clone();
//!     ys.reverse();
//!     ys.reverse();
//!     assert_eq!(xs, ys);
//! });
//! ```

use crate::hash::fnv1a_64;
use crate::rng::SplitMix64;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// One generated case: the seeded stream a property draws from, plus the
/// step cap a shrinking replay imposes on [`Case::steps`].
#[derive(Debug)]
pub struct Case {
    rng: SplitMix64,
    cap: usize,
    longest: usize,
}

impl Case {
    /// A uniformly distributed value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.rng.next_below(bound)
    }

    /// A uniformly distributed value in `range`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty.
    pub fn range(&mut self, range: Range<u64>) -> u64 {
        range.start + self.rng.next_below(range.end - range.start)
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() >> 63 == 1
    }

    /// A uniformly chosen element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.rng.next_below(items.len() as u64) as usize]
    }

    /// The length of a step sequence, uniform in `range` and capped
    /// (never below `range.start`) while the runner shrinks a failure.
    /// The draw is the same under any cap, so a capped replay runs a
    /// prefix of the uncapped case's steps.
    ///
    /// # Panics
    ///
    /// Panics if `range` is empty.
    pub fn steps(&mut self, range: Range<usize>) -> usize {
        let start = range.start;
        let n = self.range(start as u64..range.end as u64) as usize;
        self.longest = self.longest.max(n);
        n.min(self.cap).max(start)
    }

    /// The underlying stream, for helpers written against
    /// [`SplitMix64`].
    pub fn rng(&mut self) -> &mut SplitMix64 {
        &mut self.rng
    }
}

/// Runs `prop` on `cases` seeds derived from `name`, and on the first
/// failure shrinks it by prefix bisection and fails with the shrunk
/// case's own panic (see the [module documentation](self)).
///
/// # Panics
///
/// Panics when the property fails on any case.
pub fn check(name: &str, cases: u64, prop: impl Fn(&mut Case)) {
    let mut seeds = SplitMix64::new(fnv1a_64(name.as_bytes()));
    for i in 0..cases {
        let seed = seeds.next_u64();
        let Some(longest) = fails(seed, usize::MAX, &prop) else {
            continue;
        };
        // `cap = longest` replays the failure exactly; bisect below it.
        let (mut lo, mut hi) = (0, longest);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if fails(seed, mid, &prop).is_some() {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        eprintln!(
            "property `{name}` failed on case {i} of {cases}: seed {seed:#018x}, \
             shrunk to {hi} of {longest} steps; replaying `prop::replay({seed:#x}, {hi}, ..)`"
        );
        replay(seed, hi, &prop);
        panic!("property `{name}` failed at seed {seed:#x} but passed on replay: it is not deterministic");
    }
}

/// Runs `prop` once on `seed`, with every [`Case::steps`] sequence capped
/// at `steps` — the case a [`check`] failure names.
pub fn replay(seed: u64, steps: usize, prop: impl Fn(&mut Case)) {
    prop(&mut Case {
        rng: SplitMix64::new(seed),
        cap: steps,
        longest: 0,
    });
}

/// Runs one case without printing its panic; on a failure, returns the
/// longest step sequence it drew.
fn fails(seed: u64, cap: usize, prop: &impl Fn(&mut Case)) -> Option<usize> {
    thread_local!(static QUIET: Cell<bool> = const { Cell::new(false) });
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let loud = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                loud(info);
            }
        }));
    });
    let mut case = Case {
        rng: SplitMix64::new(seed),
        cap,
        longest: 0,
    };
    QUIET.with(|q| q.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(|| prop(&mut case)));
    QUIET.with(|q| q.set(false));
    result.is_err().then_some(case.longest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_stay_in_bounds_and_cover_them() {
        check("bounds", 8, |c| {
            let mut seen = [false; 5];
            for _ in 0..500 {
                let x = c.range(10..15);
                assert!((10..15).contains(&x));
                seen[(x - 10) as usize] = true;
                assert!(c.below(3) < 3);
                assert!([2u8, 4, 8].contains(&c.pick(&[2u8, 4, 8])));
                assert!((0..12).contains(&c.steps(0..12)));
            }
            assert!(seen.iter().all(|&s| s));
        });
    }

    #[test]
    fn bool_is_a_fair_coin() {
        let mut c = Case {
            rng: SplitMix64::new(1),
            cap: usize::MAX,
            longest: 0,
        };
        let heads = (0..1_000).filter(|_| c.bool()).count();
        assert!((400..600).contains(&heads), "{heads}");
    }

    #[test]
    fn seeds_follow_the_name_and_repeat() {
        let draws = |name: &str| {
            let seen = std::cell::RefCell::new(Vec::new());
            check(name, 4, |c| seen.borrow_mut().push(c.rng().next_u64()));
            seen.into_inner()
        };
        assert_eq!(draws("a"), draws("a"));
        assert_ne!(draws("a"), draws("b"));
    }

    /// A property that breaks once its sequence passes 37 steps shrinks
    /// to exactly 38, and the test fails with the property's own panic.
    #[test]
    fn a_failure_shrinks_to_the_shortest_failing_prefix() {
        let longest = Cell::new(0);
        let prop = |c: &mut Case| {
            let n = c.steps(1..400);
            longest.set(longest.get().max(n));
            for step in 0..n {
                c.below(10);
                assert!(step < 37, "step {step} is past the limit");
            }
        };
        let caught = panic::catch_unwind(AssertUnwindSafe(|| check("shrinks", 64, prop)));
        let payload = caught.expect_err("the property fails on some case");
        let message = payload
            .downcast_ref::<String>()
            .expect("the property's own formatted panic");
        assert_eq!(message, "step 37 is past the limit");
        assert!(
            longest.get() > 38,
            "the failing case was longer than its shrink"
        );
    }

    /// A capped replay draws the same first steps as the uncapped case.
    #[test]
    fn capped_replays_run_a_prefix_of_the_steps() {
        let trace = |cap: usize| {
            let seen = std::cell::RefCell::new(Vec::new());
            replay(0xfeed, cap, |c| {
                for _ in 0..c.steps(5..100) {
                    seen.borrow_mut().push(c.below(1 << 20));
                }
            });
            seen.into_inner()
        };
        let full = trace(usize::MAX);
        assert!(full.len() >= 5);
        assert_eq!(trace(3), full[..5], "the cap never cuts below the range");
        assert_eq!(trace(full.len() - 1), full[..full.len() - 1]);
    }
}
