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

pub use config::DramConfig;
pub use map::{AddressMap, DramLoc};

use channel::Channel;
use miopt_engine::sentinel::{InvariantViolation, Sentinel};
use miopt_engine::stats::{Counter, Ratio};
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

    /// All counters as stable `(name, value)` pairs; the row-hit ratio is
    /// flattened into its numerator/denominator (results serialization
    /// hook).
    #[must_use]
    pub fn to_pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("reads", self.reads.get()),
            ("writes", self.writes.get()),
            ("row_hits_hits", self.row_hits.hits()),
            ("row_hits_total", self.row_hits.total()),
            ("row_closed", self.row_closed.get()),
            ("row_conflicts", self.row_conflicts.get()),
        ]
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

impl miopt_telemetry::StatSnapshot for DramStats {
    fn stat_pairs(&self) -> Vec<(&'static str, u64)> {
        self.to_pairs()
    }
}

/// The HBM2 memory system: a set of independently scheduled channels.
#[derive(Debug)]
pub struct Dram {
    map: AddressMap,
    channels: Vec<Channel>,
    /// Bit per channel with a nonempty request queue: set on push,
    /// cleared when a tick leaves the queue empty. [`Dram::tick`] visits
    /// only set bits — on a latency-bound workload one or two of the 16
    /// channels are active at a time.
    queued: u64,
    /// Bit per channel holding undelivered responses: set when a serve
    /// produces one, cleared when the response queue drains.
    resp_ready: u64,
    stats: DramStats,
}

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
        let channels = (0..cfg.channels)
            .map(|_| Channel::new(cfg.clone()))
            .collect();
        Dram {
            map,
            channels,
            queued: 0,
            resp_ready: 0,
            stats: DramStats::default(),
        }
    }

    /// The address-to-geometry mapping in use.
    #[must_use]
    pub fn map(&self) -> &AddressMap {
        &self.map
    }

    /// Whether the target channel can accept `req` this cycle.
    #[must_use]
    pub fn can_accept(&self, req: &MemReq) -> bool {
        let loc = self.map.locate(req.line);
        self.channels[loc.channel as usize].can_accept()
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
        self.channels[c].push(now, req, loc).inspect(|()| {
            self.queued |= 1 << c;
        })
    }

    /// Advances every channel scheduler by one cycle. Returns whether any
    /// channel served or prepped a request.
    ///
    /// Channels with an empty request queue tick to a no-op (the channel
    /// scheduler early-outs), so only the channels in the `queued` mask
    /// are visited; the result is identical to a full scan.
    pub fn tick(&mut self, now: Cycle) -> bool {
        let mut acted = false;
        let mut m = self.queued;
        while m != 0 {
            let c = m.trailing_zeros() as usize;
            m &= m - 1;
            let ch = &mut self.channels[c];
            acted |= ch.tick(now, &mut self.stats);
            if !ch.has_queued() {
                self.queued &= !(1 << c);
            }
            if ch.has_responses() {
                self.resp_ready |= 1 << c;
            }
        }
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
        while *cursor < self.channels.len() {
            // Jump to the next channel in the `resp_ready` mask: the ones
            // outside it hold no responses, so skipping them preserves
            // the ascending-channel pop order.
            let ahead = self.resp_ready >> *cursor;
            if ahead == 0 {
                *cursor = self.channels.len();
                break;
            }
            let c = *cursor + ahead.trailing_zeros() as usize;
            let ch = &mut self.channels[c];
            if let Some(resp) = ch.pop_response(now) {
                if !ch.has_responses() {
                    self.resp_ready &= !(1 << c);
                }
                *cursor = c;
                return Some(resp);
            }
            *cursor = c + 1;
        }
        None
    }

    /// Whether any request is queued, in service, or has an undelivered
    /// response.
    #[must_use]
    pub fn busy(&self) -> bool {
        self.channels.iter().any(Channel::busy)
    }

    /// The earliest cycle at or after `now` at which any channel might
    /// schedule work or deliver a response, or `None` when the whole
    /// memory system is idle. Conservative: never later than the first
    /// cycle [`Dram::tick`] or [`Dram::pop_response`] would act, so an
    /// event-driven caller may skip straight to it.
    ///
    /// Visits only the channels in the `queued | resp_ready` masks — any
    /// other channel is idle — and stops at the first one that names
    /// `now`, which no channel can beat.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        let mut m = self.queued | self.resp_ready;
        while m != 0 {
            let c = m.trailing_zeros() as usize;
            m &= m - 1;
            if let Some(at) = self.channels[c].next_event(now) {
                if at <= now {
                    return Some(now);
                }
                if next.is_none_or(|n| at < n) {
                    next = Some(at);
                }
            }
        }
        next
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
            // The activity masks are conservative: a channel with work
            // must have its bit set (a set bit over an idle channel is
            // merely un-reaped).
            if ch.has_queued() && self.queued & (1 << i) == 0 {
                out.push(InvariantViolation {
                    component: component.to_string(),
                    invariant: "queued_mask_covers_work",
                    detail: format!("channel {i} has queued requests but a clear mask bit"),
                });
            }
            if ch.has_responses() && self.resp_ready & (1 << i) == 0 {
                out.push(InvariantViolation {
                    component: component.to_string(),
                    invariant: "resp_mask_covers_responses",
                    detail: format!("channel {i} has responses but a clear mask bit"),
                });
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
            let r = read(sent, sent);
            if dram.can_accept(&r) {
                dram.push(now, r).unwrap();
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
        let r = read(2, 2);
        assert!(!dram.can_accept(&r));
        assert!(dram.push(Cycle(0), r).is_err());
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

    /// The reference for [`Dram::next_event`]: every channel asked.
    fn next_event_every_channel(dram: &Dram, now: Cycle) -> Option<Cycle> {
        dram.channels
            .iter()
            .filter_map(|ch| ch.next_event(now))
            .min()
    }

    /// The reference for [`Dram::pop_response_from`]: the cursor steps
    /// through every channel, masks unread.
    fn pop_every_channel(dram: &mut Dram, now: Cycle, cursor: &mut usize) -> Option<MemResp> {
        while *cursor < dram.channels.len() {
            let ch = &mut dram.channels[*cursor];
            if let Some(resp) = ch.pop_response(now) {
                if !ch.has_responses() {
                    dram.resp_ready &= !(1 << *cursor);
                }
                return Some(resp);
            }
            *cursor += 1;
        }
        None
    }

    /// The masked walks against full 16-channel walks, stepped in
    /// lockstep on seeded traffic: one hot row that starves a conflicting
    /// request past the 2000-cycle cap, scattered reads and writes, and a
    /// drain of at most a few responses per cycle, so responses wait in
    /// channels whose queues are already empty.
    #[test]
    fn masked_walks_match_full_channel_walks() {
        let cfg = DramConfig::hbm2_paper();
        let stride = u64::from(cfg.channels) * cfg.lines_per_row * u64::from(cfg.banks);
        let (mut masked, mut full) = (Dram::new(cfg.clone()), Dram::new(cfg.clone()));
        let mut rng = miopt_engine::rng::SplitMix64::new(0xd7a3_0001);
        let (mut starved, mut waiting_unqueued, mut popped) = (0, 0, 0);
        let mut conflict_sent = false;
        let mut now = Cycle(0);
        for id in 0.. {
            if now.0 < 12_000 && rng.next_below(4) != 0 {
                // Row 0 of channel 0's bank 0 is hot enough to keep the
                // FR-FCFS window full of hits, so one request for row 1
                // of that bank waits until the starvation cap forces it.
                let conflict = !conflict_sent && now.0 >= 1_000;
                let line = match rng.next_below(10) {
                    _ if conflict => stride,
                    0..=5 => rng.next_below(cfg.lines_per_row),
                    _ => rng.next_below(1 << 16),
                };
                let mut req = read(id, line);
                if rng.next_below(5) == 0 {
                    req = MemReq::writeback(ReqId(id), LineAddr(line), now);
                }
                if masked.can_accept(&req) {
                    masked.push(now, req).unwrap();
                    full.push(now, req).unwrap();
                    conflict_sent |= conflict;
                }
            }
            assert_eq!(
                masked.next_event(now),
                next_event_every_channel(&full, now),
                "{now}"
            );
            assert_eq!(masked.tick(now), full.tick(now), "{now}");
            let (mut c_masked, mut c_full) = (0, 0);
            for _ in 0..rng.next_below(4) {
                let got = masked.pop_response_from(now, &mut c_masked);
                let want = pop_every_channel(&mut full, now, &mut c_full);
                assert_eq!(got.map(|r| r.id), want.map(|r| r.id), "{now}");
                popped += u64::from(got.is_some());
            }
            assert_eq!(
                masked.next_event(now + 1),
                next_event_every_channel(&full, now + 1),
                "{now}"
            );
            starved += u64::from(masked.channels.iter().any(|ch| ch.starved(now)));
            waiting_unqueued += u64::from(masked.resp_ready & !masked.queued != 0);
            if now.0 >= 12_000 && !masked.busy() {
                break;
            }
            now += 1;
        }
        assert_eq!(masked.stats(), full.stats());
        assert_eq!(masked.next_event(now), None);
        assert!(starved > 0, "no request waited past the starvation cap");
        assert!(waiting_unqueued > 0, "no response waited on an empty queue");
        assert!(popped > 1_000, "{popped} responses");
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
