//! On-chip interconnect for the `miopt` simulator.
//!
//! The paper's system (Figure 3) connects 64 compute units to 16 L2 slices
//! through a crossbar, and the L2 slices to the directory/memory fabric.
//! This crate provides [`Crossbar`], a generic arbitrated switch between
//! sets of [`TimedQueue`]s, used for both the request network (L1 → L2,
//! routed by address) and the response network (L2 → L1, routed by the
//! requesting CU).
//!
//! The model captures the two properties that matter for the study:
//! per-port bandwidth (at most `per_output` messages delivered to each
//! output per cycle) and FIFO head-of-line blocking at each input (a
//! blocked head stalls everything behind it, as in a real virtual-channel-
//! free switch).
//!
//! # Examples
//!
//! ```
//! use miopt_engine::{Cycle, TimedQueue};
//! use miopt_noc::Crossbar;
//!
//! let mut xbar = Crossbar::new(2, 2, 1);
//! let mut inputs = vec![TimedQueue::new(4, 0), TimedQueue::new(4, 0)];
//! let mut outputs = vec![TimedQueue::new(4, 0), TimedQueue::new(4, 0)];
//! inputs[0].push(Cycle(0), 10u64).unwrap();
//! inputs[1].push(Cycle(0), 11u64).unwrap();
//! // Scan every input; route odd values to output 1, even to output 0.
//! let mut pending = u64::MAX;
//! let route = |v: &u64| (*v % 2) as usize;
//! let (moved, _) = xbar.tick_tracked_masked(Cycle(0), &mut pending, &mut inputs, &mut outputs, route);
//! assert_eq!(moved, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use miopt_engine::sentinel::{InvariantViolation, Sentinel};
use miopt_engine::stats::Counter;
use miopt_engine::util::bits;
use miopt_engine::{Cycle, TimedQueue};

/// Statistics of one crossbar.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrossbarStats {
    /// Messages transferred.
    pub moved: Counter,
    /// Input-head observations that could not move (output full or its
    /// per-cycle budget spent).
    pub blocked: Counter,
}

impl miopt_telemetry::StatSnapshot for CrossbarStats {
    fn stat_pairs(&self) -> Vec<(&'static str, u64)> {
        vec![("moved", self.moved.get()), ("blocked", self.blocked.get())]
    }
}

/// An input-queued crossbar between `TimedQueue`s.
///
/// Each call to [`Crossbar::tick_tracked_masked`] moves at most one
/// message per input and at most `per_output` messages into each output.
/// For fairness the round-robin scan starts at input `now mod inputs`: the
/// start rotates by one per cycle whether or not the crossbar is ticked,
/// so a cycle it is not ticked on has nothing to book.
#[derive(Debug)]
pub struct Crossbar {
    inputs: usize,
    outputs: usize,
    per_output: u32,
    budget: Vec<u32>,
    /// Per output, the inputs whose ready head a tick found blocked on
    /// it while it was full. Only a tick pops an input, so such a head
    /// stays at the front, ready and routed there, until a tick moves it.
    heads_to: Vec<u64>,
    /// Outputs with a nonzero `heads_to` entry.
    routed: u64,
    /// Inputs the last tick popped (see [`Crossbar::popped_inputs`]).
    popped: u64,
    stats: CrossbarStats,
}

impl Crossbar {
    /// Creates a crossbar for `inputs` input queues and `outputs` output
    /// queues, delivering at most `per_output` messages per output per
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, or if there are more than 64
    /// inputs or outputs (port masks are a `u64`).
    #[must_use]
    pub fn new(inputs: usize, outputs: usize, per_output: u32) -> Crossbar {
        assert!(
            inputs > 0 && outputs > 0,
            "crossbar dimensions must be nonzero"
        );
        assert!(
            inputs <= 64 && outputs <= 64,
            "port masks cover at most 64 inputs and outputs"
        );
        assert!(per_output > 0, "per_output must be nonzero");
        Crossbar {
            inputs,
            outputs,
            per_output,
            budget: vec![0; outputs],
            heads_to: vec![0; outputs],
            routed: 0,
            popped: 0,
            stats: CrossbarStats::default(),
        }
    }

    /// Moves messages for one cycle, scanning only the input ports whose
    /// bit is set in `pending` — the caller's conservative "possibly
    /// nonempty" mask (all ones scans every input). `route` maps a
    /// message to its output port. Returns the number of messages moved
    /// and *which* output ports received one, as a bitmask — the
    /// event-driven core uses it to wake only the consumers that actually
    /// have new input. The mask contract:
    ///
    /// - the caller sets bit `i` whenever something may have pushed into
    ///   input `i` (spurious sets are harmless);
    /// - this method clears bit `i` when it observes input `i` empty, so
    ///   after a call the set bits are exactly the nonempty inputs;
    /// - a cleared bit promises the input is empty, so the scan skips it.
    ///
    /// Under that contract the result — moves and statistics — is that of
    /// a scan of every input: empty inputs contribute nothing to it, and
    /// the set bits are visited in the same rotated order. The point is
    /// cost: a 64-input crossbar with two active CUs touches two queues
    /// instead of sixty-four.
    ///
    /// A saturated crossbar is the other way round: most inputs hold a
    /// ready head for an output that is full. Such a head is blocked
    /// whatever order the inputs are visited in, since only this tick
    /// pushes into the outputs. So an input whose head an earlier tick
    /// found blocked on a full output is not visited while that output
    /// is still full when a tick begins, nor after a push fills it during
    /// the tick; its blocked observation is booked in closed form. A head
    /// blocked only by a spent `per_output` budget is visited in the
    /// round-robin scan as before. This needs
    /// two more promises from the caller: only these ticks pop the
    /// inputs, and `route` depends on the message alone.
    ///
    /// # Panics
    ///
    /// Panics if the queue slices do not match the constructed dimensions,
    /// or `route` returns an out-of-range port.
    pub fn tick_tracked_masked<T>(
        &mut self,
        now: Cycle,
        pending: &mut u64,
        inputs: &mut [TimedQueue<T>],
        outputs: &mut [TimedQueue<T>],
        route: impl Fn(&T) -> usize,
    ) -> (u64, u64) {
        assert_eq!(inputs.len(), self.inputs, "input port count mismatch");
        assert_eq!(outputs.len(), self.outputs, "output port count mismatch");
        self.budget.fill(self.per_output);
        let n = self.inputs;
        let start = (now.0 % n as u64) as usize;
        let live = u64::MAX >> (64 - n);
        let mut parked = 0;
        for o in bits(self.routed) {
            if !outputs[o].can_push() {
                parked |= self.heads_to[o];
                debug_assert!(bits(self.heads_to[o])
                    .all(|i| inputs[i].ready_front(now).map(&route) == Some(o)));
            }
        }
        let parked = parked & *pending & live;
        let mut blocked = u64::from(parked.count_ones());
        let mut moved = 0;
        let mut pushed = 0u64;
        self.popped = 0;
        // Round-robin order from `start`: the candidates in [start, n)
        // first, then the wrapped tail [0, start).
        let wrap = (1u64 << start) - 1;
        let scan = *pending & live & !parked;
        let mut segs = [scan & !wrap, scan & wrap];
        for k in 0..2 {
            while segs[k] != 0 {
                let cur = segs[k].trailing_zeros() as usize;
                segs[k] &= segs[k] - 1;
                if inputs[cur].is_empty() {
                    *pending &= !(1 << cur);
                    continue;
                }
                let Some(head) = inputs[cur].ready_front(now) else {
                    continue;
                };
                let o = route(head);
                assert!(o < self.outputs, "route returned invalid port {o}");
                if self.budget[o] > 0 && outputs[o].can_push() {
                    let msg = inputs[cur].pop_ready(now).expect("head was ready");
                    if outputs[o].push(now, msg).is_err() {
                        unreachable!("checked can_push");
                    }
                    if inputs[cur].is_empty() {
                        *pending &= !(1 << cur);
                    }
                    self.budget[o] -= 1;
                    if self.heads_to[o] != 0 {
                        self.heads_to[o] &= !(1 << cur);
                        if self.heads_to[o] == 0 {
                            self.routed &= !(1 << o);
                        } else if !outputs[o].can_push() {
                            // The output filled: the heads still to come
                            // that are known to route to it are blocked.
                            for seg in &mut segs {
                                blocked += u64::from((*seg & self.heads_to[o]).count_ones());
                                *seg &= !self.heads_to[o];
                            }
                        }
                    }
                    moved += 1;
                    pushed |= 1 << o;
                    self.popped |= 1 << cur;
                } else {
                    if !outputs[o].can_push() {
                        self.heads_to[o] |= 1 << cur;
                        self.routed |= 1 << o;
                    }
                    blocked += 1;
                }
            }
        }
        self.stats.blocked.add(blocked);
        self.stats.moved.add(moved);
        (moved, pushed)
    }

    /// The input ports the last tick popped a message from, as a bitmask
    /// over port indices. A pop returns a credit to whatever feeds that
    /// input: the event-driven core wakes a producer that sleeps on its
    /// full queue from here.
    #[must_use]
    pub fn popped_inputs(&self) -> u64 {
        self.popped
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CrossbarStats {
        &self.stats
    }
}

impl Sentinel for Crossbar {
    fn check_invariants(&self, component: &str, out: &mut Vec<InvariantViolation>) {
        if self.budget.len() != self.outputs {
            out.push(InvariantViolation {
                component: component.to_string(),
                invariant: "budget_dimensions",
                detail: format!(
                    "{} budget slots for {} output ports",
                    self.budget.len(),
                    self.outputs
                ),
            });
        }
        // Each input's head is known to route to one output at most, and
        // `routed` names exactly the outputs with a known head.
        let mut seen = 0u64;
        let overlap = self.heads_to.iter().any(|&h| {
            let twice = h & seen != 0;
            seen |= h;
            twice
        });
        let routed =
            (self.heads_to.iter().enumerate()).fold(0u64, |m, (o, &h)| m | u64::from(h != 0) << o);
        if overlap || routed != self.routed {
            out.push(InvariantViolation {
                component: component.to_string(),
                invariant: "parked_heads",
                detail: format!(
                    "heads by output {:x?}, routed outputs {:#x}",
                    self.heads_to, self.routed
                ),
            });
        }
        if let Some(b) = self.budget.iter().find(|b| **b > self.per_output) {
            out.push(InvariantViolation {
                component: component.to_string(),
                invariant: "bandwidth_budget",
                detail: format!("port budget {b} exceeds per_output {}", self.per_output),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queues(n: usize, cap: usize) -> Vec<TimedQueue<u64>> {
        (0..n).map(|_| TimedQueue::new(cap, 0)).collect()
    }

    /// One tick scanning every input (an all-ones pending mask); returns
    /// the messages moved.
    fn tick(
        x: &mut Crossbar,
        now: Cycle,
        ins: &mut [TimedQueue<u64>],
        outs: &mut [TimedQueue<u64>],
        route: impl Fn(&u64) -> usize,
    ) -> u64 {
        let mut all = u64::MAX;
        x.tick_tracked_masked(now, &mut all, ins, outs, route).0
    }

    /// An independent reference for the masked tick: the plain scan of
    /// every input in round-robin order from `now mod inputs`.
    fn full_scan(
        x: &mut Crossbar,
        now: Cycle,
        ins: &mut [TimedQueue<u64>],
        outs: &mut [TimedQueue<u64>],
        route: impl Fn(&u64) -> usize,
    ) -> (u64, u64) {
        x.budget.fill(x.per_output);
        let n = x.inputs;
        let start = (now.0 % n as u64) as usize;
        let (mut moved, mut pushed) = (0, 0u64);
        x.popped = 0;
        for cur in (start..n).chain(0..start) {
            let Some(head) = ins[cur].ready_front(now) else {
                continue;
            };
            let o = route(head);
            if x.budget[o] > 0 && outs[o].can_push() {
                let msg = ins[cur].pop_ready(now).expect("head was ready");
                outs[o].push(now, msg).expect("checked can_push");
                x.budget[o] -= 1;
                moved += 1;
                pushed |= 1 << o;
                x.popped |= 1 << cur;
            } else {
                x.stats.blocked.inc();
            }
        }
        x.stats.moved.add(moved);
        (moved, pushed)
    }

    #[test]
    fn routes_by_function() {
        let mut x = Crossbar::new(1, 4, 1);
        let mut ins = queues(1, 8);
        let mut outs = queues(4, 8);
        for v in [0u64, 1, 2, 3] {
            ins[0].push(Cycle(0), v).unwrap();
        }
        for cycle in 0..4 {
            tick(&mut x, Cycle(cycle), &mut ins, &mut outs, |v| {
                (*v % 4) as usize
            });
        }
        for (i, out) in outs.iter_mut().enumerate() {
            assert_eq!(out.pop_ready(Cycle(10)), Some(i as u64));
        }
    }

    #[test]
    fn per_output_bandwidth_is_enforced() {
        let mut x = Crossbar::new(4, 1, 2);
        let mut ins = queues(4, 8);
        let mut outs = queues(1, 8);
        for q in ins.iter_mut() {
            q.push(Cycle(0), 0).unwrap();
        }
        let moved = tick(&mut x, Cycle(0), &mut ins, &mut outs, |_| 0);
        assert_eq!(moved, 2, "only per_output messages per cycle");
        let moved = tick(&mut x, Cycle(1), &mut ins, &mut outs, |_| 0);
        assert_eq!(moved, 2);
        assert_eq!(x.stats().moved.get(), 4);
        assert_eq!(x.stats().blocked.get(), 2);
    }

    #[test]
    fn full_output_blocks_input() {
        let mut x = Crossbar::new(1, 1, 4);
        let mut ins = queues(1, 8);
        let mut outs: Vec<TimedQueue<u64>> = vec![TimedQueue::new(1, 0)];
        ins[0].push(Cycle(0), 1).unwrap();
        ins[0].push(Cycle(0), 2).unwrap();
        assert_eq!(tick(&mut x, Cycle(0), &mut ins, &mut outs, |_| 0), 1);
        assert_eq!(
            tick(&mut x, Cycle(1), &mut ins, &mut outs, |_| 0),
            0,
            "output full"
        );
        outs[0].pop_ready(Cycle(1)).unwrap();
        assert_eq!(tick(&mut x, Cycle(2), &mut ins, &mut outs, |_| 0), 1);
    }

    #[test]
    fn popped_inputs_names_the_queues_that_got_a_credit_back() {
        let mut x = Crossbar::new(3, 1, 1);
        let mut ins = queues(3, 8);
        let mut outs = queues(1, 8);
        ins[0].push(Cycle(0), 7).unwrap();
        ins[2].push(Cycle(0), 9).unwrap();
        // One output slot per cycle: input 0 moves, input 2 is blocked.
        tick(&mut x, Cycle(0), &mut ins, &mut outs, |_| 0);
        assert_eq!(x.popped_inputs(), 0b001);
        // Cycle 1 starts the scan at input 1 (empty), then 2.
        tick(&mut x, Cycle(1), &mut ins, &mut outs, |_| 0);
        assert_eq!(x.popped_inputs(), 0b100);
        tick(&mut x, Cycle(2), &mut ins, &mut outs, |_| 0);
        assert_eq!(x.popped_inputs(), 0, "an idle tick pops nothing");
    }

    #[test]
    fn round_robin_rotates_fairly() {
        let mut x = Crossbar::new(2, 1, 1);
        let mut ins = queues(2, 8);
        let mut outs = queues(1, 8);
        for _ in 0..4 {
            ins[0].push(Cycle(0), 100).unwrap();
            ins[1].push(Cycle(0), 200).unwrap();
        }
        let mut first_moved = Vec::new();
        for cycle in 0..8 {
            let before = (ins[0].len(), ins[1].len());
            tick(&mut x, Cycle(cycle), &mut ins, &mut outs, |_| 0);
            let after = (ins[0].len(), ins[1].len());
            if before.0 > after.0 {
                first_moved.push(0);
            } else if before.1 > after.1 {
                first_moved.push(1);
            }
        }
        // Both inputs drain completely and service alternates.
        assert_eq!(ins[0].len() + ins[1].len(), 0);
        assert!(first_moved.contains(&0) && first_moved.contains(&1));
    }

    #[test]
    fn unready_heads_are_skipped() {
        let mut x = Crossbar::new(1, 1, 1);
        let mut ins: Vec<TimedQueue<u64>> = vec![TimedQueue::new(8, 5)];
        let mut outs = queues(1, 8);
        ins[0].push(Cycle(0), 1).unwrap(); // ready at cycle 5
        assert_eq!(tick(&mut x, Cycle(0), &mut ins, &mut outs, |_| 0), 0);
        assert_eq!(tick(&mut x, Cycle(5), &mut ins, &mut outs, |_| 0), 1);
    }

    #[test]
    fn sentinel_stays_quiet_across_ticks() {
        let mut x = Crossbar::new(2, 2, 1);
        let mut ins = queues(2, 8);
        let mut outs = queues(2, 8);
        ins[0].push(Cycle(0), 0).unwrap();
        ins[1].push(Cycle(0), 1).unwrap();
        let mut out = Vec::new();
        for cycle in 0..4 {
            tick(&mut x, Cycle(cycle), &mut ins, &mut outs, |v| {
                (*v % 2) as usize
            });
            x.check_invariants("noc.req", &mut out);
        }
        assert!(out.is_empty(), "violations: {out:?}");
    }

    #[test]
    fn sparse_ticks_pop_what_every_cycle_ticks_pop() {
        // The event core ticks a crossbar only on cycles with a ready head,
        // where a tick on any other cycle would find nothing to move. A
        // crossbar ticked on those cycles alone must pop the same inputs as
        // one ticked on every cycle with the same traffic.
        const TICKS: [u64; 5] = [0, 5, 6, 130, 131];
        let (mut sparse, mut dense) = (Crossbar::new(3, 1, 1), Crossbar::new(3, 1, 1));
        let (mut ins_s, mut ins_d) = (queues(3, 8), queues(3, 8));
        let (mut outs_s, mut outs_d) = (queues(1, 8), queues(1, 8));
        let mut pops = Vec::new();
        for cycle in 0..=131 {
            // Each burst of ticks starts with one message per tick in it,
            // so that the first tick of a burst has a choice to make.
            let arrivals: &[usize] = match cycle {
                0 => &[1],
                5 => &[0, 1],
                130 => &[0, 2],
                _ => &[],
            };
            for &i in arrivals {
                ins_s[i].push(Cycle(cycle), cycle).unwrap();
                ins_d[i].push(Cycle(cycle), cycle).unwrap();
            }
            tick(&mut dense, Cycle(cycle), &mut ins_d, &mut outs_d, |_| 0);
            if TICKS.contains(&cycle) {
                tick(&mut sparse, Cycle(cycle), &mut ins_s, &mut outs_s, |_| 0);
                assert_eq!(
                    sparse.popped_inputs(),
                    dense.popped_inputs(),
                    "cycle {cycle}"
                );
                pops.push(sparse.popped_inputs());
            } else {
                assert_eq!(dense.popped_inputs(), 0, "cycle {cycle}");
            }
        }
        // The scan starts at `now mod 3`: input 0 before 1 at cycle 5, input
        // 2 before 0 at cycle 130.
        assert_eq!(pops, [0b010, 0b001, 0b010, 0b100, 0b001]);
        assert_eq!(sparse.stats(), dense.stats());
    }

    #[test]
    fn masked_tick_matches_full_scan() {
        // Same traffic through a masked and an unmasked crossbar must
        // produce identical queue states, stats, and rotation — including
        // unready heads, blocked outputs, and stale-set pending bits on
        // empty inputs.
        let mut full = Crossbar::new(5, 2, 1);
        let mut masked = Crossbar::new(5, 2, 1);
        let mk = || -> Vec<TimedQueue<u64>> {
            (0..5).map(|i| TimedQueue::new(4, (i as u64) % 3)).collect()
        };
        let (mut ins_f, mut ins_m) = (mk(), mk());
        let mut outs_f: Vec<TimedQueue<u64>> = vec![TimedQueue::new(2, 0), TimedQueue::new(1, 0)];
        let mut outs_m: Vec<TimedQueue<u64>> = vec![TimedQueue::new(2, 0), TimedQueue::new(1, 0)];
        // Stale-set bits everywhere; the masked tick must clear them.
        let mut pending = u64::MAX;
        for cycle in 0..24u64 {
            // A deterministic trickle: input (cycle % 5) gets a message
            // on most cycles, routed by value parity.
            if cycle % 4 != 3 {
                let v = cycle * 7;
                let i = (cycle % 5) as usize;
                let _ = ins_f[i].push(Cycle(cycle), v);
                if ins_m[i].push(Cycle(cycle), v).is_ok() {
                    pending |= 1 << i;
                }
            }
            let got_f = full_scan(&mut full, Cycle(cycle), &mut ins_f, &mut outs_f, |v| {
                (*v % 2) as usize
            });
            let got_m = masked.tick_tracked_masked(
                Cycle(cycle),
                &mut pending,
                &mut ins_m,
                &mut outs_m,
                |v| (*v % 2) as usize,
            );
            assert_eq!(got_f, got_m, "cycle {cycle}");
            assert_eq!(full.popped_inputs(), masked.popped_inputs());
            assert_eq!(u64::from(masked.popped_inputs().count_ones()), got_m.0);
            // Drain one output slot every few cycles so blocking both
            // happens and clears.
            if cycle % 3 == 0 {
                assert_eq!(
                    outs_f[1].pop_ready(Cycle(cycle)),
                    outs_m[1].pop_ready(Cycle(cycle))
                );
            }
            for (f, m) in ins_f.iter().zip(&ins_m) {
                assert_eq!(f.len(), m.len(), "cycle {cycle}");
            }
            // Post-tick contract: set bits are exactly the nonempty
            // inputs.
            for (i, q) in ins_m.iter().enumerate() {
                assert_eq!(
                    pending & (1 << i) != 0,
                    !q.is_empty(),
                    "cycle {cycle} input {i}"
                );
            }
        }
        assert_eq!(full.stats(), masked.stats());
    }

    /// Steps a crossbar and the plain full scan in lockstep on seeded
    /// traffic into outputs of 1, 5 and 9 slots drained at random, so
    /// ticks find outputs full at their start, filling during them, and
    /// limited by their budget: every cycle the moves, the outputs pushed, the
    /// inputs popped, the statistics and every queue must agree. Returns
    /// how many heads were found parked on an output full at tick start.
    fn lockstep_against_full_scan(per_output: u32, seed: u64) -> u64 {
        const INPUTS: usize = 12;
        const OUTPUTS: usize = 3;
        let mut rng = miopt_engine::rng::SplitMix64::new(seed);
        let (mut fast, mut full) = (
            Crossbar::new(INPUTS, OUTPUTS, per_output),
            Crossbar::new(INPUTS, OUTPUTS, per_output),
        );
        let mk_ins = || -> Vec<TimedQueue<u64>> {
            (0..INPUTS)
                .map(|i| TimedQueue::new(6, i as u64 % 3))
                .collect()
        };
        let mk_outs = || -> Vec<TimedQueue<u64>> {
            (0..OUTPUTS)
                .map(|o| TimedQueue::new(1 + 4 * o, 0))
                .collect()
        };
        let (mut ins_f, mut ins_s) = (mk_ins(), mk_ins());
        let (mut outs_f, mut outs_s) = (mk_outs(), mk_outs());
        let route = |v: &u64| (*v % OUTPUTS as u64) as usize;
        let mut pending = 0u64;
        let mut parked = 0;
        for cycle in 0..4_000u64 {
            let now = Cycle(cycle);
            for _ in 0..rng.next_below(4) {
                let i = rng.next_below(INPUTS as u64) as usize;
                let v = rng.next_below(1 << 20);
                if ins_f[i].push(now, v).is_ok() {
                    ins_s[i].push(now, v).unwrap();
                    pending |= 1 << i;
                }
            }
            // What the tick may skip: heads it knows are routed to an
            // output full now.
            parked += bits(fast.routed)
                .filter(|&o| !outs_f[o].can_push())
                .map(|o| u64::from((fast.heads_to[o] & pending).count_ones()))
                .sum::<u64>();
            let got = fast.tick_tracked_masked(now, &mut pending, &mut ins_f, &mut outs_f, route);
            let want = full_scan(&mut full, now, &mut ins_s, &mut outs_s, route);
            assert_eq!(got, want, "{now}");
            assert_eq!(fast.popped_inputs(), full.popped_inputs(), "{now}");
            assert_eq!(fast.stats(), full.stats(), "{now}");
            let mut violations = Vec::new();
            fast.check_invariants("noc", &mut violations);
            assert!(violations.is_empty(), "{now}: {violations:?}");
            for (f, s) in ins_f.iter().zip(&ins_s) {
                assert_eq!(f.iter().collect::<Vec<_>>(), s.iter().collect::<Vec<_>>());
            }
            for (f, s) in outs_f.iter_mut().zip(&mut outs_s) {
                for _ in 0..rng.next_below(3) {
                    assert_eq!(f.pop_ready(now), s.pop_ready(now), "{now}");
                }
            }
        }
        parked
    }

    #[test]
    fn parked_heads_match_full_scan() {
        for per_output in [1, 2] {
            for seed in [1, 2] {
                let parked = lockstep_against_full_scan(per_output, seed);
                assert!(
                    parked > 1_000,
                    "per_output {per_output}: {parked} parked heads"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "port masks cover at most 64")]
    fn more_than_64_ports_panics() {
        let _ = Crossbar::new(65, 16, 1);
    }

    #[test]
    #[should_panic(expected = "input port count mismatch")]
    fn dimension_mismatch_panics() {
        let mut x = Crossbar::new(2, 1, 1);
        let mut ins = queues(1, 4);
        let mut outs = queues(1, 4);
        tick(&mut x, Cycle(0), &mut ins, &mut outs, |_| 0);
    }
}
