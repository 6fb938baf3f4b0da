//! Property tests on the engine's `EventWheel` calendar queue,
//! differenced against an ordered-map reference model (`BTreeMap` keyed by
//! cycle, one id-bitmask per cycle — the semantics a `BinaryHeap` of
//! `(cycle, id)` pairs with same-cycle batching would give): insert, pop,
//! reschedule-by-insert, cancel, same-cycle ascending-id batching, ring
//! rotation across the 4096-slot window boundary, and the far-future
//! overflow path.

use miopt_engine::prop::{self, Case};
use miopt_engine::{Cycle, EventWheel};
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Step {
    /// Insert id at `base + offset` — offsets beyond the 4096-cycle
    /// window exercise the overflow map.
    Insert { id: u8, offset: u64 },
    /// Cancel id at `base + offset` (whether or not it is pending).
    Cancel { id: u8, offset: u64 },
    /// Cancel the lowest pending id of the `n % len`-th pending cycle
    /// (a no-op on an empty wheel), so cancels also hit the overflow map.
    CancelPending(u64),
    /// Pop the earliest cycle's whole batch.
    Pop,
}

fn step(c: &mut Case) -> Step {
    // Offsets cluster near the window edge (4096) and reach far past it,
    // so bucket rotation and overflow-drain interleave with dense
    // near-term traffic.
    let offset = |c: &mut Case| match c.below(7) {
        0..=3 => c.below(64),
        4..=5 => c.range(4000..4200),
        _ => c.range(8000..20000),
    };
    match c.below(12) {
        0..=5 => Step::Insert {
            id: c.below(64) as u8,
            offset: offset(c),
        },
        6 => Step::Cancel {
            id: c.below(64) as u8,
            offset: offset(c),
        },
        7..=8 => Step::CancelPending(c.below(64)),
        _ => Step::Pop,
    }
}

/// The `n % len`-th of `pending`'s `(cycle, mask)` entries, if any.
fn nth_pending(pending: impl Iterator<Item = (u64, u64)>, n: u64) -> Option<(u64, u64)> {
    let pending: Vec<(u64, u64)> = pending.collect();
    (!pending.is_empty()).then(|| pending[(n % pending.len() as u64) as usize])
}

/// Reference model: an ordered map from cycle to id-bitmask. Popping
/// takes the whole earliest batch, exactly the wheel's contract.
#[derive(Default)]
struct Model {
    pending: BTreeMap<u64, u64>,
    base: u64,
}

impl Model {
    fn insert(&mut self, at: u64, id: u8) {
        let at = at.max(self.base);
        *self.pending.entry(at).or_insert(0) |= 1u64 << id;
    }

    fn cancel(&mut self, at: u64, id: u8) {
        if let Some(mask) = self.pending.get_mut(&at) {
            *mask &= !(1u64 << id);
            if *mask == 0 {
                self.pending.remove(&at);
            }
        }
    }

    fn pop_next(&mut self) -> Option<(u64, u64)> {
        let (&at, &mask) = self.pending.iter().next()?;
        self.pending.remove(&at);
        self.base = at + 1;
        Some((at, mask))
    }
}

#[test]
fn wheel_matches_the_ordered_map_reference() {
    prop::check("wheel_matches_the_ordered_map_reference", 256, |c| {
        let start = c.below(100_000);
        let mut wheel = EventWheel::new();
        wheel.reset(Cycle(start));
        let mut model = Model {
            pending: BTreeMap::new(),
            base: start,
        };

        for _ in 0..c.steps(1..400) {
            match step(c) {
                Step::Insert { id, offset } => {
                    let at = model.base + offset;
                    wheel.insert(Cycle(at), id);
                    model.insert(at, id);
                }
                Step::Cancel { id, offset } => {
                    let at = model.base + offset;
                    wheel.cancel(Cycle(at), id);
                    model.cancel(at, id);
                }
                Step::CancelPending(n) => {
                    if let Some((at, mask)) =
                        nth_pending(model.pending.iter().map(|(&k, &m)| (k, m)), n)
                    {
                        let id = mask.trailing_zeros() as u8;
                        wheel.cancel(Cycle(at), id);
                        model.cancel(at, id);
                    }
                }
                Step::Pop => {
                    let got = wheel.pop_next();
                    let want = model.pop_next();
                    assert_eq!(
                        got,
                        want.map(|(at, mask)| (Cycle(at), mask)),
                        "pop diverged from the reference model"
                    );
                }
            }
            assert_eq!(
                wheel.next_cycle(),
                model.pending.keys().next().map(|&c| Cycle(c)),
                "peek diverged from the reference model"
            );
            assert_eq!(wheel.is_empty(), model.pending.is_empty());
        }
        let listed: Vec<(Cycle, u64)> = wheel.entries().collect();
        let want: Vec<(Cycle, u64)> = model.pending.iter().map(|(&k, &m)| (Cycle(k), m)).collect();
        assert_eq!(listed, want, "entries diverged from the reference model");

        // Drain both to empty: every remaining batch must match, in
        // ascending cycle order with same-cycle ids batched together.
        loop {
            let got = wheel.pop_next();
            let want = model.pop_next().map(|(at, mask)| (Cycle(at), mask));
            assert_eq!(got, want, "drain diverged");
            if got.is_none() {
                break;
            }
        }
    });
}

#[test]
fn insert_is_idempotent_and_pop_batches_ascending_ids() {
    prop::check(
        "insert_is_idempotent_and_pop_batches_ascending_ids",
        256,
        |c| {
            let start = c.below(10_000);
            // All ids land on one cycle (duplicates included); one pop must
            // return the whole batch as a mask, then the wheel is empty.
            let mut wheel = EventWheel::new();
            wheel.reset(Cycle(start));
            let at = Cycle(start + c.below(6000));
            let mut mask = 0u64;
            for _ in 0..c.steps(1..32) {
                let id = c.below(64) as u8;
                wheel.insert(at, id);
                wheel.insert(at, id); // duplicate: must be a no-op
                mask |= 1u64 << id;
            }
            assert_eq!(wheel.pop_next(), Some((at, mask)));
            assert_eq!(wheel.pop_next(), None);
            assert!(wheel.is_empty());
        },
    );
}

#[test]
fn base_only_moves_forward_across_any_op_sequence() {
    prop::check("base_only_moves_forward_across_any_op_sequence", 256, |c| {
        let start = c.below(10_000);
        let mut wheel = EventWheel::new();
        wheel.reset(Cycle(start));
        let mut floor = Cycle(start);
        for _ in 0..c.steps(1..200) {
            match step(c) {
                Step::Insert { id, offset } => wheel.insert(wheel.base() + offset, id),
                Step::Cancel { id, offset } => wheel.cancel(wheel.base() + offset, id),
                Step::CancelPending(n) => {
                    if let Some((at, mask)) = nth_pending(wheel.entries().map(|(k, m)| (k.0, m)), n)
                    {
                        wheel.cancel(Cycle(at), mask.trailing_zeros() as u8);
                    }
                }
                Step::Pop => {
                    if let Some((at, _)) = wheel.pop_next() {
                        assert!(at >= floor, "pop went backwards in time");
                        floor = at + 1;
                    }
                }
            }
            assert!(wheel.base() >= floor.max(Cycle(start)));
        }
    });
}
