//! A calendar-queue **event wheel**: the priority structure at the heart
//! of the discrete-event simulation core.
//!
//! The wheel indexes pending wakeups by [`Cycle`]. Near-future events
//! (within [`EventWheel::WINDOW`] cycles of the wheel's base) live in a
//! power-of-two ring of per-cycle slots, each slot a 64-bit mask of event
//! ids, with a two-level occupancy bitmap so finding the next nonempty
//! slot is a handful of word scans. Far-future events take the slow path:
//! an ordered overflow map drained into the ring as the base advances.
//!
//! Determinism rules (the simulator's event core relies on all three):
//!
//! * **Idempotent insert** — scheduling the same id at the same cycle
//!   twice is one event.
//! * **Batched pop** — [`EventWheel::pop_next`] returns *all* ids due at
//!   the earliest pending cycle as one mask; the caller dispatches them
//!   in ascending id order, which is how same-cycle ties break.
//! * **Monotonic base** — popping cycle `c` advances the base to `c + 1`
//!   (whether by [`EventWheel::pop_next`] or by an exact
//!   [`EventWheel::take`]); later inserts may never target a cycle before
//!   the base.
//!
//! # Examples
//!
//! ```
//! use miopt_engine::{Cycle, EventWheel};
//!
//! let mut w = EventWheel::new();
//! w.insert(Cycle(10), 3);
//! w.insert(Cycle(10), 1);
//! w.insert(Cycle(100_000), 0); // far future: overflow path
//! assert_eq!(w.pop_next(), Some((Cycle(10), 0b1010)));
//! assert_eq!(w.pop_next(), Some((Cycle(100_000), 0b1)));
//! assert!(w.pop_next().is_none());
//! ```

use crate::Cycle;
use std::collections::BTreeMap;

/// Ring size in cycles (and slots). Power of two so the slot of a cycle
/// is a mask, sized to cover every latency in the modelled memory system
/// (the longest single hop, an uncached DRAM round trip on the 4x-clocked
/// machine, is a few hundred cycles) so the overflow map only ever sees
/// coarse periodic work: telemetry epochs, sentinel sweeps, launch
/// overhead.
const SLOTS: usize = 4096;
/// Words in the per-slot occupancy bitmap (one bit per slot).
const WORDS: usize = SLOTS / 64;

/// An indexed calendar queue keyed by [`Cycle`], holding up to 64
/// distinct event ids per cycle. See the module docs above for the
/// slot/overflow layout.
#[derive(Debug, Clone)]
pub struct EventWheel {
    /// Cycles before `base` are in the past; the ring covers
    /// `[base, base + SLOTS)`.
    base: u64,
    /// Per-cycle id masks; slot of cycle `c` is `c % SLOTS`.
    slots: Vec<u64>,
    /// First-level occupancy: bit `s % 64` of word `s / 64` set iff
    /// `slots[s] != 0`.
    occupied: [u64; WORDS],
    /// Second-level occupancy: bit `w` set iff `occupied[w] != 0`.
    summary: u64,
    /// Far-future events (`at >= base + SLOTS`): cycle -> id mask.
    overflow: BTreeMap<u64, u64>,
}

impl EventWheel {
    /// The ring's horizon: events this many cycles past the base (or
    /// further) take the overflow slow path until the base catches up.
    pub const WINDOW: u64 = SLOTS as u64;

    /// An empty wheel based at cycle 0.
    #[must_use]
    pub fn new() -> EventWheel {
        EventWheel {
            base: 0,
            slots: vec![0; SLOTS],
            occupied: [0; WORDS],
            summary: 0,
            overflow: BTreeMap::new(),
        }
    }

    /// Drops every pending event and rebases the wheel at `base` — the
    /// start of a fresh run on a reused system. Rebasing an empty wheel
    /// costs O(1): its slots are all zero already.
    pub fn reset(&mut self, base: Cycle) {
        if self.summary != 0 {
            self.slots.fill(0);
            self.occupied.fill(0);
            self.summary = 0;
        }
        self.overflow.clear();
        self.base = base.0;
    }

    /// The wheel's base: the earliest cycle an event may occupy.
    #[must_use]
    pub fn base(&self) -> Cycle {
        Cycle(self.base)
    }

    /// Whether no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.summary == 0 && self.overflow.is_empty()
    }

    /// Schedules event `id` at cycle `at`. Idempotent: re-inserting an
    /// id already pending at `at` changes nothing.
    ///
    /// `at` must not precede the base (the past); in release builds such
    /// an insert is clamped to the base, which is the conservative
    /// direction (an event can only fire early, never be missed).
    ///
    /// # Panics
    ///
    /// Debug builds panic if `id >= 64` or `at` precedes the base.
    pub fn insert(&mut self, at: Cycle, id: u8) {
        debug_assert!(id < 64, "event id {id} out of mask range");
        self.insert_mask(at, 1 << id);
    }

    /// Schedules every event whose bit is set in `ids` at cycle `at`, as
    /// one [`EventWheel::insert`] per bit would. `ids` must be nonzero.
    pub fn insert_mask(&mut self, at: Cycle, ids: u64) {
        debug_assert_ne!(ids, 0, "empty id mask");
        debug_assert!(
            at.0 >= self.base,
            "insert at {at} before wheel base {}",
            self.base
        );
        let at = at.0.max(self.base);
        if at - self.base >= SLOTS as u64 {
            *self.overflow.entry(at).or_insert(0) |= ids;
            return;
        }
        let s = (at % SLOTS as u64) as usize;
        self.slots[s] |= ids;
        self.occupied[s / 64] |= 1 << (s % 64);
        self.summary |= 1 << (s / 64);
    }

    /// Unschedules event `id` at cycle `at`, if pending there. Cancelling
    /// an absent event (or a past cycle) is a no-op.
    pub fn cancel(&mut self, at: Cycle, id: u8) {
        debug_assert!(id < 64, "event id {id} out of mask range");
        if at.0 < self.base {
            return;
        }
        if at.0 - self.base >= SLOTS as u64 {
            if let Some(m) = self.overflow.get_mut(&at.0) {
                *m &= !(1u64 << id);
                if *m == 0 {
                    self.overflow.remove(&at.0);
                }
            }
            return;
        }
        let s = (at.0 % SLOTS as u64) as usize;
        self.slots[s] &= !(1u64 << id);
        if self.slots[s] == 0 {
            self.occupied[s / 64] &= !(1u64 << (s % 64));
            if self.occupied[s / 64] == 0 {
                self.summary &= !(1u64 << (s / 64));
            }
        }
    }

    /// The earliest pending cycle, without popping.
    #[must_use]
    pub fn next_cycle(&self) -> Option<Cycle> {
        // Every ring cycle precedes every overflow key, so the ring wins
        // whenever it is nonempty.
        self.scan_window()
            .or_else(|| self.overflow.first_key_value().map(|(&k, _)| k))
            .map(Cycle)
    }

    /// The ids pending at exactly cycle `at`, without popping: an empty
    /// mask if nothing is scheduled there or `at` is in the past.
    #[must_use]
    pub fn pending_at(&self, at: Cycle) -> u64 {
        if at.0 < self.base {
            0
        } else if at.0 - self.base >= SLOTS as u64 {
            self.overflow.get(&at.0).copied().unwrap_or(0)
        } else {
            self.slots[(at.0 % SLOTS as u64) as usize]
        }
    }

    /// Every pending cycle with its id mask, in ascending cycle order.
    /// Walks the whole ring (O([`EventWheel::WINDOW`])): meant for
    /// consistency checks, not for a hot path.
    pub fn entries(&self) -> impl Iterator<Item = (Cycle, u64)> + '_ {
        let b = (self.base % SLOTS as u64) as usize;
        let ring = (b..SLOTS)
            .chain(0..b)
            .filter(|&s| self.slots[s] != 0)
            .map(move |s| {
                let ahead = (s + SLOTS - b) % SLOTS;
                (Cycle(self.base + ahead as u64), self.slots[s])
            });
        ring.chain(self.overflow.iter().map(|(&k, &m)| (Cycle(k), m)))
    }

    /// Pops exactly cycle `at`: returns the ids pending there (0 if none)
    /// and advances the base to `at + 1`. O(1) on the ring — one slot
    /// read and cleared, no scan — for a caller that already knows the
    /// cycle, such as an event core whose other wheel mirrors this one.
    /// Nothing may be pending before `at` (debug builds assert it); a
    /// past `at` returns 0 and leaves the base where it is.
    pub fn take(&mut self, at: Cycle) -> u64 {
        debug_assert!(
            self.next_cycle().is_none_or(|c| c >= at),
            "take at {at} with {:?} pending before it",
            self.next_cycle()
        );
        if at.0 < self.base {
            return 0;
        }
        let mask = if at.0 - self.base >= SLOTS as u64 {
            self.overflow.remove(&at.0).unwrap_or(0)
        } else {
            let s = (at.0 % SLOTS as u64) as usize;
            let mask = self.slots[s];
            if mask != 0 {
                self.slots[s] = 0;
                self.occupied[s / 64] &= !(1u64 << (s % 64));
                if self.occupied[s / 64] == 0 {
                    self.summary &= !(1u64 << (s / 64));
                }
            }
            mask
        };
        self.base = at.0 + 1;
        self.drain_overflow();
        mask
    }

    /// Pops the earliest pending cycle and **all** ids due at it, as
    /// `(cycle, id mask)`, advancing the base past the popped cycle.
    /// Returns `None` when the wheel is empty.
    pub fn pop_next(&mut self) -> Option<(Cycle, u64)> {
        loop {
            if let Some(c) = self.scan_window() {
                let s = (c % SLOTS as u64) as usize;
                let mask = self.slots[s];
                debug_assert_ne!(mask, 0, "occupied slot with empty mask");
                self.slots[s] = 0;
                self.occupied[s / 64] &= !(1u64 << (s % 64));
                if self.occupied[s / 64] == 0 {
                    self.summary &= !(1u64 << (s / 64));
                }
                self.base = c + 1;
                self.drain_overflow();
                return Some((Cycle(c), mask));
            }
            // Ring empty: jump the base straight to the first far-future
            // event and pull its cohort into the ring.
            let (&k, _) = self.overflow.first_key_value()?;
            self.base = k;
            self.drain_overflow();
        }
    }

    /// First occupied ring cycle at or after the base, scanning the
    /// occupancy bitmaps cyclically from the base's slot.
    fn scan_window(&self) -> Option<u64> {
        if self.summary == 0 {
            return None;
        }
        let b = (self.base % SLOTS as u64) as usize;
        let (bw, bb) = (b / 64, b % 64);
        let cycle_of = |s: usize| {
            if s >= b {
                self.base + (s - b) as u64
            } else {
                self.base + (SLOTS - b + s) as u64
            }
        };
        // 1. The base's own word, bits at or after the base slot.
        let m = self.occupied[bw] & (!0u64 << bb);
        if m != 0 {
            return Some(cycle_of(bw * 64 + m.trailing_zeros() as usize));
        }
        // 2. Later words, up to the end of the ring.
        let hi = if bw + 1 < WORDS {
            self.summary & (!0u64 << (bw + 1))
        } else {
            0
        };
        if hi != 0 {
            let w = hi.trailing_zeros() as usize;
            return Some(cycle_of(
                w * 64 + self.occupied[w].trailing_zeros() as usize,
            ));
        }
        // 3. Wrapped: words strictly before the base's word...
        let lo = self.summary & ((1u64 << bw) - 1);
        if lo != 0 {
            let w = lo.trailing_zeros() as usize;
            return Some(cycle_of(
                w * 64 + self.occupied[w].trailing_zeros() as usize,
            ));
        }
        // 4. ...then the base's word, bits before the base slot.
        let m = self.occupied[bw] & !(!0u64 << bb);
        if m != 0 {
            return Some(cycle_of(bw * 64 + m.trailing_zeros() as usize));
        }
        None
    }

    /// Moves every overflow event that now fits the ring window into it.
    fn drain_overflow(&mut self) {
        let horizon = self.base + SLOTS as u64;
        while let Some((&k, _)) = self.overflow.first_key_value() {
            if k >= horizon {
                break;
            }
            let m = self.overflow.remove(&k).expect("key just observed");
            let s = (k % SLOTS as u64) as usize;
            self.slots[s] |= m;
            self.occupied[s / 64] |= 1 << (s % 64);
            self.summary |= 1 << (s / 64);
        }
    }
}

impl Default for EventWheel {
    fn default() -> EventWheel {
        EventWheel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn pops_in_cycle_order_with_same_cycle_ids_batched() {
        let mut w = EventWheel::new();
        w.insert(Cycle(7), 2);
        w.insert(Cycle(3), 5);
        w.insert(Cycle(7), 0);
        assert_eq!(w.next_cycle(), Some(Cycle(3)));
        assert_eq!(w.pop_next(), Some((Cycle(3), 1 << 5)));
        assert_eq!(w.pop_next(), Some((Cycle(7), (1 << 2) | 1)));
        assert_eq!(w.pop_next(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn insert_is_idempotent() {
        let mut w = EventWheel::new();
        w.insert(Cycle(4), 1);
        w.insert(Cycle(4), 1);
        assert_eq!(w.pop_next(), Some((Cycle(4), 1 << 1)));
        assert_eq!(w.pop_next(), None);
    }

    #[test]
    fn insert_mask_is_one_insert_per_bit() {
        let mut w = EventWheel::new();
        w.insert(Cycle(4), 0);
        w.insert_mask(Cycle(4), 0b1011);
        w.insert_mask(Cycle(EventWheel::WINDOW + 9), 0b110); // overflow path
        assert_eq!(w.pop_next(), Some((Cycle(4), 0b1011)));
        assert_eq!(w.pop_next(), Some((Cycle(EventWheel::WINDOW + 9), 0b110)));
        assert_eq!(w.pop_next(), None);
    }

    #[test]
    fn base_advances_past_each_pop() {
        let mut w = EventWheel::new();
        w.insert(Cycle(10), 0);
        assert_eq!(w.pop_next(), Some((Cycle(10), 1)));
        assert_eq!(w.base(), Cycle(11));
        // Re-inserting at the popped cycle is the past now.
        w.insert(Cycle(11), 0);
        assert_eq!(w.pop_next(), Some((Cycle(11), 1)));
    }

    #[test]
    fn ring_wraps_across_the_slot_boundary() {
        let mut w = EventWheel::new();
        // Advance the base deep into the ring, then schedule events whose
        // slots wrap around the ring's end.
        w.insert(Cycle(EventWheel::WINDOW - 2), 0);
        assert_eq!(w.pop_next(), Some((Cycle(EventWheel::WINDOW - 2), 1)));
        w.insert(Cycle(EventWheel::WINDOW - 1), 1); // last slot
        w.insert(Cycle(EventWheel::WINDOW + 5), 2); // wrapped slot 5
        w.insert(Cycle(2 * EventWheel::WINDOW - 3), 3); // window's far edge
        assert_eq!(w.pop_next(), Some((Cycle(EventWheel::WINDOW - 1), 1 << 1)));
        assert_eq!(w.pop_next(), Some((Cycle(EventWheel::WINDOW + 5), 1 << 2)));
        assert_eq!(
            w.pop_next(),
            Some((Cycle(2 * EventWheel::WINDOW - 3), 1 << 3))
        );
        assert_eq!(w.pop_next(), None);
    }

    #[test]
    fn far_future_events_take_the_overflow_path_and_drain_in_order() {
        let mut w = EventWheel::new();
        w.insert(Cycle(1_000_000), 0);
        w.insert(Cycle(500_000), 1);
        w.insert(Cycle(500_000), 2);
        w.insert(Cycle(3), 3);
        assert_eq!(w.pop_next(), Some((Cycle(3), 1 << 3)));
        assert_eq!(w.pop_next(), Some((Cycle(500_000), (1 << 1) | (1 << 2))));
        assert_eq!(w.pop_next(), Some((Cycle(1_000_000), 1)));
        assert_eq!(w.pop_next(), None);
    }

    #[test]
    fn overflow_event_near_events_merge_when_window_advances() {
        let mut w = EventWheel::new();
        // One event just inside the window, one just outside at the same
        // slot index (WINDOW apart): the overflow entry must not clobber
        // or merge with the near one.
        w.insert(Cycle(9), 0);
        w.insert(Cycle(9 + EventWheel::WINDOW), 1);
        assert_eq!(w.pop_next(), Some((Cycle(9), 1)));
        assert_eq!(w.pop_next(), Some((Cycle(9 + EventWheel::WINDOW), 1 << 1)));
    }

    #[test]
    fn cancel_removes_pending_events_everywhere() {
        let mut w = EventWheel::new();
        w.insert(Cycle(5), 0);
        w.insert(Cycle(5), 1);
        w.insert(Cycle(100_000), 2);
        w.cancel(Cycle(5), 0);
        w.cancel(Cycle(100_000), 2);
        w.cancel(Cycle(77), 7); // absent: no-op
        assert_eq!(w.pop_next(), Some((Cycle(5), 1 << 1)));
        assert_eq!(w.pop_next(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn pending_at_peeks_ring_and_overflow_without_popping() {
        let mut w = EventWheel::new();
        w.insert(Cycle(5), 0);
        w.insert(Cycle(5), 3);
        w.insert(Cycle(5 + EventWheel::WINDOW), 1); // same slot, overflow
        assert_eq!(w.pending_at(Cycle(5)), 0b1001);
        assert_eq!(w.pending_at(Cycle(6)), 0);
        assert_eq!(w.pending_at(Cycle(5 + EventWheel::WINDOW)), 0b10);
        assert_eq!(w.pop_next(), Some((Cycle(5), 0b1001)));
        assert_eq!(w.pending_at(Cycle(5)), 0, "the past holds nothing");
        assert_eq!(w.pending_at(Cycle(5 + EventWheel::WINDOW)), 0b10);
    }

    #[test]
    fn reset_rebases_and_clears() {
        let mut w = EventWheel::new();
        w.insert(Cycle(3), 0);
        w.insert(Cycle(999_999), 1);
        w.reset(Cycle(1_000));
        assert!(w.is_empty());
        assert_eq!(w.base(), Cycle(1_000));
        w.insert(Cycle(1_000), 4);
        assert_eq!(w.pop_next(), Some((Cycle(1_000), 1 << 4)));
    }

    #[test]
    fn rebasing_an_emptied_wheel_keeps_near_events_in_the_ring() {
        let mut w = EventWheel::new();
        w.insert(Cycle(3), 0);
        w.insert(Cycle(9), 1);
        w.cancel(Cycle(9), 1);
        assert_eq!(w.pop_next(), Some((Cycle(3), 1)));
        assert!(w.is_empty());
        // Far past the old base: without the rebase this is an overflow
        // insert.
        w.reset(Cycle(1_000_000));
        w.insert(Cycle(1_000_005), 2);
        assert!(w.overflow.is_empty());
        assert_eq!(w.pending_at(Cycle(1_000_005)), 1 << 2);
        assert_eq!(w.pop_next(), Some((Cycle(1_000_005), 1 << 2)));
        assert!(w.slots.iter().all(|&s| s == 0));
    }

    /// Randomized differential test against an ordered-map reference
    /// model, over insert / cancel / pop / take interleavings spanning
    /// the ring, its wrap boundary, and the overflow path, ending with
    /// the full `entries` listing. (The proptest
    /// variant in `tests/proptest_eventwheel.rs` explores the same state
    /// space with shrinkable inputs when the external dependencies are
    /// available.)
    #[test]
    fn matches_an_ordered_map_reference_model() {
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(0x5eed_0000 + seed);
            let mut wheel = EventWheel::new();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut horizon = 0u64; // wheel base lower bound
            for _ in 0..4_000 {
                match rng.next_below(12) {
                    0..=5 => {
                        // Insert near, around the window edge, or far.
                        let spread = match rng.next_below(3) {
                            0 => rng.next_below(64),
                            1 => EventWheel::WINDOW - 32 + rng.next_below(64),
                            _ => rng.next_below(100_000),
                        };
                        let at = horizon + spread;
                        let id = (rng.next_below(64)) as u8;
                        wheel.insert(Cycle(at), id);
                        *model.entry(at).or_insert(0) |= 1 << id;
                    }
                    6..=7 => {
                        let popped = wheel.pop_next();
                        let expect = model.first_key_value().map(|(&k, &m)| (Cycle(k), m));
                        assert_eq!(popped, expect, "seed {seed}");
                        if let Some((c, _)) = popped {
                            model.remove(&c.0);
                            horizon = c.0 + 1;
                        }
                    }
                    8..=9 => {
                        // Take a cycle no later than the earliest pending
                        // one: usually that cycle itself, sometimes an
                        // empty one before it (or past an empty wheel).
                        let earliest = model.first_key_value().map(|(&k, _)| k);
                        let at = match earliest {
                            Some(k) if rng.next_below(4) != 0 => k,
                            Some(k) => horizon + rng.next_below(k - horizon + 1),
                            None => horizon + rng.next_below(2 * EventWheel::WINDOW),
                        };
                        let expect = model.remove(&at).unwrap_or(0);
                        assert_eq!(wheel.take(Cycle(at)), expect, "seed {seed} take {at}");
                        assert_eq!(wheel.base(), Cycle(at + 1));
                        horizon = at + 1;
                    }
                    _ => {
                        // Cancel a (usually present) pending event.
                        if let Some((&k, &m)) = model.first_key_value() {
                            let id = m.trailing_zeros() as u8;
                            wheel.cancel(Cycle(k), id);
                            let left = m & !(1u64 << id);
                            if left == 0 {
                                model.remove(&k);
                            } else {
                                model.insert(k, left);
                            }
                        }
                    }
                }
                let probe = horizon + rng.next_below(2 * EventWheel::WINDOW);
                assert_eq!(
                    wheel.pending_at(Cycle(probe)),
                    model.get(&probe).copied().unwrap_or(0),
                    "seed {seed} peek at {probe}"
                );
            }
            let listed: Vec<(Cycle, u64)> = wheel.entries().collect();
            let want: Vec<(Cycle, u64)> = model.iter().map(|(&k, &m)| (Cycle(k), m)).collect();
            assert_eq!(listed, want, "seed {seed} entries");
            // Drain both to the end.
            loop {
                let popped = wheel.pop_next();
                let expect = model.pop_first().map(|(k, m)| (Cycle(k), m));
                assert_eq!(popped, expect, "seed {seed} drain");
                if popped.is_none() {
                    break;
                }
            }
        }
    }
}
