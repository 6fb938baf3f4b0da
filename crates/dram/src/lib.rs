//! HBM2 main-memory model for the `miopt` simulator.
//!
//! Models the Table 1 memory system of the paper: 16 GB HBM2, 16 channels,
//! 16 banks per channel, ~512 GB/s aggregate bandwidth. The model captures
//! exactly the phenomena the paper's evaluation depends on:
//!
//! * **Row-buffer locality** (Figures 9 and 13): each bank keeps one open
//!   row; accesses to the open row are *row hits*, accesses to a closed bank
//!   pay an activate, and accesses to a different row pay precharge +
//!   activate (*row conflict*). Caching policies that delay or reorder
//!   requests disrupt this locality — the paper's central overhead.
//! * **FR-FCFS scheduling**: the per-channel scheduler services row hits
//!   first, falling back to the oldest request, with a starvation cap.
//! * **Bandwidth**: one 64 B burst occupies a channel's data bus for
//!   `t_burst` cycles; a read/write direction switch costs `t_switch`.
//!
//! # Examples
//!
//! ```
//! use miopt_dram::{Dram, DramConfig};
//! use miopt_engine::{Cycle, LineAddr, MemReq, ReqId};
//!
//! let mut dram = Dram::new(DramConfig::hbm2_paper());
//! let wb = MemReq::writeback(ReqId(0), LineAddr(0), Cycle(0));
//! dram.push(Cycle(0), wb).unwrap();
//! let mut now = Cycle(0);
//! while dram.busy() {
//!     dram.tick(now);
//!     now += 1;
//! }
//! assert_eq!(dram.stats().writes.get(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod channel;
mod config;
mod map;
#[cfg(test)]
mod reference;

pub use config::DramConfig;
pub use map::{AddressMap, DramLoc};

use channel::Channel;
use miopt_engine::sentinel::{InvariantViolation, Sentinel};
use miopt_engine::stats::{Counter, Ratio};
use miopt_engine::util::bits;
use miopt_engine::{Cycle, MemReq, MemResp};

/// Aggregate DRAM statistics across all channels.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read bursts serviced.
    pub reads: Counter,
    /// Write bursts serviced.
    pub writes: Counter,
    /// Row-buffer outcome per serviced burst (hit vs. miss/conflict).
    pub row_hits: Ratio,
    /// Bursts that found the bank closed (activate only).
    pub row_closed: Counter,
    /// Bursts that found a different row open (precharge + activate).
    pub row_conflicts: Counter,
}

impl DramStats {
    /// Total bursts serviced (reads + writes).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.reads.get() + self.writes.get()
    }

    /// Reconstructs statistics from persisted counters. `get` is queried
    /// once per field name (results deserialization hook).
    ///
    /// # Errors
    ///
    /// Returns the name of the first field `get` cannot supply, or the
    /// row-hit ratio violation if the numerator exceeds the denominator.
    pub fn from_pairs(mut get: impl FnMut(&str) -> Option<u64>) -> Result<DramStats, String> {
        let mut want =
            |name: &'static str| get(name).ok_or_else(|| format!("missing dram stat `{name}`"));
        let reads = Counter::from_value(want("reads")?);
        let writes = Counter::from_value(want("writes")?);
        let hits = want("row_hits_hits")?;
        let total = want("row_hits_total")?;
        if hits > total {
            return Err(format!("row_hits ratio {hits}/{total} is impossible"));
        }
        Ok(DramStats {
            reads,
            writes,
            row_hits: Ratio::from_parts(hits, total),
            row_closed: Counter::from_value(want("row_closed")?),
            row_conflicts: Counter::from_value(want("row_conflicts")?),
        })
    }
}

/// The row-hit ratio is flattened into its numerator and denominator.
impl miopt_telemetry::StatSnapshot for DramStats {
    fn stat_pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("reads", self.reads.get()),
            ("writes", self.writes.get()),
            ("row_hits_hits", self.row_hits.hits()),
            ("row_hits_total", self.row_hits.total()),
            ("row_closed", self.row_closed.get()),
            ("row_conflicts", self.row_conflicts.get()),
        ]
    }
}

/// The HBM2 memory system: a set of independently scheduled channels.
#[derive(Debug)]
pub struct Dram {
    map: AddressMap,
    channels: Vec<Channel>,
    /// Per channel, the cycle its scheduler next acts
    /// ([`Channel::next_action`]; [`NEVER`] on an empty queue), valid
    /// while its `stale` bit is clear. [`Dram::tick`] visits only the
    /// channels due by it or stale, and [`Dram::next_event`] is a minimum
    /// over these cycles — on a latency-bound workload one or two of the
    /// 16 channels are active at a time, on a saturated one a few act
    /// each cycle.
    wake: Vec<Cycle>,
    /// Bit per channel with a nonempty request queue: set on push,
    /// cleared when a tick leaves the queue empty. A tick with none set
    /// returns at once.
    queued: u64,
    /// Channels pushed to since their `wake` was computed: a push may
    /// give a channel an earlier or later next action. A tick visits and
    /// recomputes each, so between ticks only pushes set bits here.
    stale: u64,
    /// The `from` the clean `wake` cycles answer for: one past the last
    /// tick (the sentinel recomputes them from it).
    wake_from: Cycle,
    /// Per channel, when its oldest undelivered response becomes
    /// deliverable ([`NEVER`] with none): refreshed whenever a tick
    /// visits the channel or a response leaves it.
    resp_at: Vec<Cycle>,
    stats: DramStats,
}

/// The cached cycle of a channel with nothing queued or nothing to deliver.
const NEVER: Cycle = Cycle(u64::MAX);

impl Dram {
    /// Builds a DRAM from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration asks for more than 64 channels (the
    /// activity masks are single words).
    #[must_use]
    pub fn new(cfg: DramConfig) -> Dram {
        assert!(cfg.channels <= 64, "channel activity mask is a u64");
        let map = AddressMap::new(&cfg);
        let channels: Vec<Channel> = (0..cfg.channels)
            .map(|_| Channel::new(cfg.clone()))
            .collect();
        Dram {
            map,
            wake: vec![NEVER; channels.len()],
            resp_at: vec![NEVER; channels.len()],
            channels,
            queued: 0,
            stale: 0,
            wake_from: Cycle::ZERO,
            stats: DramStats::default(),
        }
    }

    /// The address-to-geometry mapping in use.
    #[must_use]
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// Enqueues a request on its channel.
    ///
    /// # Errors
    ///
    /// Returns `req` back if the channel queue is full; the caller should
    /// retry next cycle (and count a stall).
    pub fn push(&mut self, now: Cycle, req: MemReq) -> Result<(), MemReq> {
        let loc = self.map.locate(req.line);
        let c = loc.channel as usize;
        self.channels[c].push(now, req, loc)?;
        self.queued |= 1 << c;
        self.stale |= 1 << c;
        Ok(())
    }

    /// Advances every channel scheduler by one cycle. Returns whether any
    /// channel served or prepped a request.
    ///
    /// Visits only the channels that are stale or whose cached next
    /// action is due at `now`: any other channel's tick is a no-op (its
    /// next action is exact), so the result is identical to ticking every
    /// channel. Each visited channel's next action is recomputed.
    pub fn tick(&mut self, now: Cycle) -> bool {
        self.wake_from = now + 1;
        if self.queued == 0 {
            return false;
        }
        let due = self
            .wake
            .iter()
            .enumerate()
            .fold(self.stale, |m, (c, &at)| m | u64::from(at <= now) << c);
        let mut acted = false;
        for c in bits(due) {
            let ch = &mut self.channels[c];
            acted |= ch.tick(now, &mut self.stats);
            self.wake[c] = ch.next_action(now + 1).unwrap_or(NEVER);
            if self.wake[c] == NEVER {
                self.queued &= !(1 << c);
            }
            self.resp_at[c] = ch.response_ready_at().unwrap_or(NEVER);
        }
        self.stale = 0;
        acted
    }

    /// Takes one completed read response, if any is ready at `now`.
    pub fn pop_response(&mut self, now: Cycle) -> Option<MemResp> {
        let mut cursor = 0;
        self.pop_response_from(now, &mut cursor)
    }

    /// [`Dram::pop_response`] with an explicit channel cursor: resumes the
    /// scan at `*cursor` instead of channel 0, advancing the cursor past
    /// exhausted channels. Draining a burst of responses within one cycle
    /// this way pops them in exactly [`Dram::pop_response`]'s order —
    /// nothing becomes ready mid-drain at a fixed `now` — while probing
    /// each channel once instead of once per response.
    pub fn pop_response_from(&mut self, now: Cycle, cursor: &mut usize) -> Option<MemResp> {
        while let Some(&at) = self.resp_at.get(*cursor) {
            if at <= now {
                let ch = &mut self.channels[*cursor];
                let resp = ch.pop_response(now);
                self.resp_at[*cursor] = ch.response_ready_at().unwrap_or(NEVER);
                return resp;
            }
            *cursor += 1;
        }
        None
    }

    /// Whether any request is queued, in service, or has an undelivered
    /// response.
    #[must_use]
    pub fn busy(&self) -> bool {
        self.channels.iter().any(Channel::busy)
    }

    /// The first cycle at or after `now` at which [`Dram::tick`] serves or
    /// preps on some channel or [`Dram::pop_response`] delivers a
    /// response, or `None` when the whole memory system is idle. Exact
    /// until the next push: it is the minimum of each channel's cached
    /// next action (a due one counts as `now`; one pushed to since its
    /// last tick is recomputed, in O(banks)) and
    /// each channel's oldest response, so an event-driven caller may
    /// sleep until it and a push is the one event that can make it
    /// earlier.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        // A stale channel's `wake` counts as `NEVER`, without a branch.
        let clean = (self.wake.iter().zip(&self.resp_at).enumerate()).fold(
            NEVER,
            |next, (c, (&wake, &resp))| {
                let stale = (self.stale >> c & 1).wrapping_neg();
                next.min(Cycle(wake.0 | stale)).min(resp)
            },
        );
        let next = bits(self.stale)
            .filter_map(|c| self.channels[c].next_action(now))
            .fold(clean, Cycle::min);
        (next != NEVER).then(|| next.max(now))
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }
}

impl Sentinel for Dram {
    fn check_invariants(&self, component: &str, out: &mut Vec<InvariantViolation>) {
        for (i, ch) in self.channels.iter().enumerate() {
            ch.check_invariants(&format!("{component}.ch[{i}]"), out);
            if ch.has_queued() && self.queued & (1 << i) == 0 {
                out.push(InvariantViolation {
                    component: component.to_string(),
                    invariant: "queued_mask_covers_work",
                    detail: format!("channel {i} has queued requests but a clear mask bit"),
                });
            }
            let resp_at = ch.response_ready_at().unwrap_or(NEVER);
            if self.resp_at[i] != resp_at {
                out.push(InvariantViolation {
                    component: component.to_string(),
                    invariant: "resp_at_matches_responses",
                    detail: format!(
                        "channel {i} caches its oldest response at {} but it is ready at {resp_at}",
                        self.resp_at[i]
                    ),
                });
            }
            // A clean cached next action later than a fresh computation
            // would let `tick` and `next_event` sleep through work.
            if self.stale >> i & 1 == 0 {
                if let Some(fresh) = ch.next_action_recounted(self.wake_from) {
                    if self.wake[i] > fresh {
                        out.push(InvariantViolation {
                            component: component.to_string(),
                            invariant: "channel_wake_not_late",
                            detail: format!(
                                "channel {i} cached next action {} but a fresh \
                                 computation from {} says {fresh}",
                                self.wake[i], self.wake_from
                            ),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miopt_engine::{AccessKind, LineAddr, Origin, Pc, ReqId};

    fn read(id: u64, line: u64) -> MemReq {
        MemReq {
            id: ReqId(id),
            line: LineAddr(line),
            is_store: false,
            kind: AccessKind::Bypass,
            pc: Pc(0),
            origin: Origin::Wavefront { cu: 0, slot: 0 },
            issue_cycle: Cycle(0),
        }
    }

    fn run_until_idle(
        dram: &mut Dram,
        mut now: Cycle,
        mut on_resp: impl FnMut(MemResp, Cycle),
    ) -> Cycle {
        let mut guard = 0;
        while dram.busy() {
            dram.tick(now);
            while let Some(r) = dram.pop_response(now) {
                on_resp(r, now);
            }
            now += 1;
            guard += 1;
            assert!(guard < 1_000_000, "dram did not drain");
        }
        now
    }

    #[test]
    fn sentinel_stays_quiet_through_a_full_drain() {
        let mut dram = Dram::new(DramConfig::hbm2_paper());
        for i in 0..8 {
            dram.push(Cycle(0), read(i, i * 3)).unwrap();
        }
        let mut out = Vec::new();
        dram.check_invariants("dram", &mut out);
        assert!(out.is_empty(), "violations before drain: {out:?}");
        run_until_idle(&mut dram, Cycle(0), |_, _| {});
        dram.check_invariants("dram", &mut out);
        assert!(out.is_empty(), "violations after drain: {out:?}");
    }

    #[test]
    fn single_read_completes_and_counts() {
        let mut dram = Dram::new(DramConfig::hbm2_paper());
        dram.push(Cycle(0), read(1, 0)).unwrap();
        let mut got = Vec::new();
        run_until_idle(&mut dram, Cycle(0), |r, _| got.push(r.id));
        assert_eq!(got, vec![ReqId(1)]);
        assert_eq!(dram.stats().reads.get(), 1);
        assert_eq!(dram.stats().row_hits.total(), 1);
        // First access to a bank is a closed-row miss, not a hit.
        assert_eq!(dram.stats().row_hits.hits(), 0);
        assert_eq!(dram.stats().row_closed.get(), 1);
    }

    #[test]
    fn sequential_stream_gets_high_row_hit_rate() {
        let cfg = DramConfig::hbm2_paper();
        let mut dram = Dram::new(cfg.clone());
        let mut now = Cycle(0);
        // Stream 4 full rows' worth of lines through every channel, issuing
        // as fast as DRAM accepts.
        let total = cfg.channels as u64 * cfg.lines_per_row * 4;
        let mut sent = 0;
        let mut guard = 0;
        while sent < total {
            if dram.push(now, read(sent, sent)).is_ok() {
                sent += 1;
            }
            dram.tick(now);
            while dram.pop_response(now).is_some() {}
            now += 1;
            guard += 1;
            assert!(guard < 1_000_000);
        }
        run_until_idle(&mut dram, now, |_, _| {});
        let ratio = dram.stats().row_hits.value();
        assert!(ratio > 0.9, "streaming row hit ratio {ratio} too low");
    }

    #[test]
    fn alternating_rows_same_bank_conflict() {
        let cfg = DramConfig::hbm2_paper();
        let mut dram = Dram::new(cfg.clone());
        // Two lines in the same channel and bank but different rows,
        // issued strictly serially (each waits for the previous response)
        // so the scheduler cannot batch them: every access after the first
        // must conflict.
        let stride = cfg.channels as u64 * cfg.lines_per_row * cfg.banks as u64;
        let mut now = Cycle(0);
        for i in 0..20u64 {
            let line = (i % 2) * stride;
            dram.push(now, read(i, line)).unwrap();
            now = run_until_idle(&mut dram, now, |_, _| {});
        }
        assert!(
            dram.stats().row_conflicts.get() >= 18,
            "conflicts: {:?}",
            dram.stats()
        );
        assert!(dram.stats().row_hits.value() < 0.2);
    }

    #[test]
    fn row_hits_beat_row_conflicts_in_latency() {
        let cfg = DramConfig::hbm2_paper();
        let stride = cfg.channels as u64 * cfg.lines_per_row * cfg.banks as u64;

        let time_for = |lines: Vec<u64>| {
            let mut dram = Dram::new(cfg.clone());
            for (i, l) in lines.iter().enumerate() {
                dram.push(Cycle(0), read(i as u64, *l)).unwrap();
            }
            let end = run_until_idle(&mut dram, Cycle(0), |_, _| {});
            end.0
        };

        // Same row (consecutive columns) vs. row ping-pong.
        let hits = time_for((0..8).collect());
        let conflicts = time_for((0..8).map(|i| (i % 2) * stride).collect());
        assert!(hits < conflicts, "hits {hits} vs conflicts {conflicts}");
    }

    #[test]
    fn writes_complete_without_responses() {
        let mut dram = Dram::new(DramConfig::hbm2_paper());
        for i in 0..4 {
            dram.push(
                Cycle(0),
                MemReq::writeback(ReqId(i), LineAddr(i * 2), Cycle(0)),
            )
            .unwrap();
        }
        let mut resp_count = 0;
        run_until_idle(&mut dram, Cycle(0), |_, _| resp_count += 1);
        assert_eq!(resp_count, 0);
        assert_eq!(dram.stats().writes.get(), 4);
    }

    #[test]
    fn backpressure_when_queue_full() {
        let cfg = DramConfig {
            queue_capacity: 2,
            ..DramConfig::hbm2_paper()
        };
        let mut dram = Dram::new(cfg);
        // All three target channel 0 (consecutive columns of one row).
        assert!(dram.push(Cycle(0), read(0, 0)).is_ok());
        assert!(dram.push(Cycle(0), read(1, 1)).is_ok());
        assert!(dram.push(Cycle(0), read(2, 2)).is_err());
    }

    #[test]
    fn next_event_never_skips_an_acting_cycle() {
        // Drive a mixed row-hit/conflict stream per-cycle and record, at
        // every cycle, whether stats or responses moved. next_event must
        // never name a cycle later than the next observed action.
        let cfg = DramConfig::hbm2_paper();
        let stride = cfg.channels as u64 * cfg.lines_per_row * cfg.banks as u64;
        let mut dram = Dram::new(cfg);
        for i in 0..12u64 {
            dram.push(Cycle(0), read(i, (i % 3) * stride + i)).unwrap();
        }
        let mut now = Cycle(0);
        let mut guard = 0;
        while dram.busy() {
            let predicted = dram.next_event(now).expect("busy dram has an event");
            assert!(predicted >= now);
            let before = dram.stats().clone();
            dram.tick(now);
            let mut popped = false;
            while dram.pop_response(now).is_some() {
                popped = true;
            }
            let acted = popped || *dram.stats() != before;
            if acted {
                assert_eq!(
                    predicted, now,
                    "channel acted at {now} but next_event said {predicted}"
                );
            }
            now += 1;
            guard += 1;
            assert!(guard < 1_000_000);
        }
        assert_eq!(dram.next_event(now), None, "idle dram reports no event");
    }

    /// What a lockstep run met on its way.
    #[derive(Debug, Default)]
    struct Coverage {
        /// Cycles on which some channel's head was past the starvation cap.
        starved: u64,
        /// Serves that turned the bus around between reads and writes.
        turnarounds: u64,
        /// Pushes refused by a full channel queue.
        full: u64,
        /// Cycles with responses waiting in a channel with an empty queue.
        waiting_unqueued: u64,
        /// Cycles on which a reference channel held a prep back for a
        /// window hit on the bank's open row.
        held: u64,
        popped: u64,
    }

    /// Steps a [`Dram`] and the full-walk reference scheduler in lockstep
    /// on seeded traffic, asserting every cycle that the two serve, prep
    /// and deliver the same requests (the whole channel state is
    /// compared), keep the same statistics, that the sentinel is quiet,
    /// and that `next_event` names exactly the cycles on which the
    /// reference acts or has a response to deliver — never later, never
    /// earlier than the reference's conservative bound.
    ///
    /// The traffic: one row of channel 0's bank 0 (`hot` in 10 requests)
    /// is hot enough to keep
    /// the FR-FCFS window full of hits, so one request for another row of
    /// that bank waits past the starvation cap; the rest are scattered
    /// reads and writes over a few rows, up to three a cycle, so queues
    /// fill; and a drain of at most a few responses per cycle, so
    /// responses wait in channels whose queues are already empty.
    fn lockstep(cfg: &DramConfig, seed: u64, traffic_cycles: u64, hot: u64) -> Coverage {
        let stride = u64::from(cfg.channels) * cfg.lines_per_row * u64::from(cfg.banks);
        let (mut dram, mut full) = (Dram::new(cfg.clone()), reference::Dram::new(cfg.clone()));
        let mut rng = miopt_engine::rng::SplitMix64::new(seed);
        let mut cov = Coverage::default();
        let mut conflict_sent = false;
        let mut id = 0;
        let mut now = Cycle(0);
        loop {
            for _ in 0..rng.next_below(4) {
                if now.0 >= traffic_cycles {
                    break;
                }
                let conflict = !conflict_sent && now.0 >= traffic_cycles / 12;
                let line = match rng.next_below(10) {
                    _ if conflict => stride,
                    r if r < hot => rng.next_below(cfg.lines_per_row),
                    _ => rng.next_below(4 * stride),
                };
                let req = if rng.next_below(5) == 0 {
                    MemReq::writeback(ReqId(id), LineAddr(line), now)
                } else {
                    read(id, line)
                };
                id += 1;
                if dram.push(now, req).is_ok() {
                    full.push(now, req).unwrap();
                    conflict_sent |= conflict;
                } else {
                    full.push(now, req).unwrap_err();
                    cov.full += 1;
                }
            }
            let mut violations = Vec::new();
            dram.check_invariants("dram", &mut violations);
            assert!(violations.is_empty(), "{now}: {violations:?}");

            let predicted = dram.next_event(now);
            let bound = full.next_event(now);
            assert!(
                predicted.is_some() == bound.is_some() && predicted >= bound,
                "{now}: next_event {predicted:?} before the reference's bound {bound:?}"
            );
            let deliverable = full.response_ready(now);
            let held = full.channels.iter().any(|ch| ch.holds_a_prep(now));
            let writes_before: Vec<bool> = dram
                .channels
                .iter()
                .map(|ch| ch.snapshot().last_was_write)
                .collect();
            let acted = full.tick(now);
            assert_eq!(dram.tick(now), acted, "{now}");
            assert_eq!(
                predicted == Some(now),
                acted || deliverable,
                "{now}: next_event {predicted:?}, reference acted {acted}, \
                 response deliverable {deliverable}"
            );
            for (c, (got, want)) in dram.channels.iter().zip(&full.channels).enumerate() {
                assert_eq!(got.snapshot(), want.snapshot(), "{now}: channel {c}");
                cov.turnarounds += u64::from(got.snapshot().last_was_write != writes_before[c]);
            }
            assert_eq!(dram.stats(), full.stats(), "{now}");
            let (mut c_new, mut c_ref) = (0, 0);
            for _ in 0..rng.next_below(4) {
                let got = dram.pop_response_from(now, &mut c_new);
                let want = full.pop_response_from(now, &mut c_ref);
                assert_eq!(got.map(|r| r.id), want.map(|r| r.id), "{now}");
                cov.popped += u64::from(got.is_some());
            }
            cov.held += u64::from(held && !acted);
            cov.starved += u64::from(dram.channels.iter().any(|ch| ch.starved(now)));
            cov.waiting_unqueued += u64::from(
                dram.channels
                    .iter()
                    .any(|ch| ch.has_responses() && !ch.has_queued()),
            );
            if now.0 >= traffic_cycles && !dram.busy() {
                break;
            }
            now += 1;
        }
        assert_eq!(dram.next_event(now), None);
        cov
    }

    fn assert_covered(cov: &Coverage) {
        assert!(
            cov.starved > 0,
            "no request waited past the starvation cap: {cov:?}"
        );
        assert!(cov.turnarounds > 0, "no read/write turnaround: {cov:?}");
        assert!(cov.full > 0, "no push met a full queue: {cov:?}");
        assert!(
            cov.waiting_unqueued > 0,
            "no response waited on an empty queue: {cov:?}"
        );
        assert!(
            cov.held > 0,
            "no prep was held back for a window hit: {cov:?}"
        );
        assert!(cov.popped > 1_000, "{cov:?}");
    }

    /// The per-bank scheduler, the cached channel wakes and the masked
    /// walks against the full-walk reference scheduler, on the paper's
    /// memory system.
    #[test]
    fn masked_walks_match_full_channel_walks() {
        assert_covered(&lockstep(&DramConfig::hbm2_paper(), 0xd7a3_0001, 12_000, 6));
    }

    /// The same lockstep on the tiny test geometry: 2 channels of 4 banks,
    /// an 8-deep queue and a 500-cycle starvation cap.
    #[test]
    fn masked_walks_match_full_channel_walks_tiny() {
        for seed in [1, 2, 3] {
            assert_covered(&lockstep(&DramConfig::tiny_test(), seed, 6_000, 8));
        }
    }

    #[test]
    fn distinct_channels_overlap_in_time() {
        let cfg = DramConfig::hbm2_paper();
        let serial_one_channel = {
            let mut dram = Dram::new(cfg.clone());
            for i in 0..8u64 {
                dram.push(Cycle(0), read(i, i)).unwrap(); // one row, one channel
            }
            run_until_idle(&mut dram, Cycle(0), |_, _| {}).0
        };
        let parallel_channels = {
            let mut dram = Dram::new(cfg.clone());
            for i in 0..8u64 {
                // One line per channel.
                dram.push(Cycle(0), read(i, i * cfg.lines_per_row)).unwrap();
            }
            run_until_idle(&mut dram, Cycle(0), |_, _| {}).0
        };
        assert!(parallel_channels <= serial_one_channel);
    }
}
