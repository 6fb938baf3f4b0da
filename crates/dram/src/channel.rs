use crate::bank::{Bank, RowOutcome};
use crate::map::DramLoc;
use crate::{DramConfig, DramStats};
use miopt_engine::sentinel::{InvariantViolation, Sentinel};
use miopt_engine::{Cycle, MemReq, MemResp};
use std::collections::VecDeque;

/// A queued request with its decoded coordinates and arrival time.
#[derive(Debug, Clone)]
struct Entry {
    req: MemReq,
    loc: DramLoc,
    arrived: Cycle,
    /// Whether the row-buffer outcome was already recorded (at prep time
    /// for misses/conflicts).
    counted: bool,
}

/// One HBM2 channel: a request queue, an FR-FCFS scheduler, a shared data
/// bus, and a set of banks.
#[derive(Debug)]
pub(crate) struct Channel {
    cfg: DramConfig,
    queue: VecDeque<Entry>,
    banks: Vec<Bank>,
    bus_free_at: Cycle,
    last_was_write: bool,
    responses: VecDeque<(Cycle, MemResp)>,
    in_service: usize,
}

impl Channel {
    pub(crate) fn new(cfg: DramConfig) -> Channel {
        let banks = (0..cfg.banks).map(|_| Bank::new()).collect();
        // Both queues are bounded — requests by `queue_capacity`, responses
        // by the requests in flight — so pre-sizing them keeps steady-state
        // traffic off the heap.
        let queue = VecDeque::with_capacity(cfg.queue_capacity);
        let responses = VecDeque::with_capacity(cfg.queue_capacity.max(16));
        Channel {
            cfg,
            queue,
            banks,
            bus_free_at: Cycle::ZERO,
            last_was_write: false,
            responses,
            in_service: 0,
        }
    }

    pub(crate) fn can_accept(&self) -> bool {
        self.queue.len() < self.cfg.queue_capacity
    }

    pub(crate) fn push(&mut self, now: Cycle, req: MemReq, loc: DramLoc) -> Result<(), MemReq> {
        if !self.can_accept() {
            return Err(req);
        }
        self.queue.push_back(Entry {
            req,
            loc,
            arrived: now,
            counted: false,
        });
        Ok(())
    }

    pub(crate) fn busy(&self) -> bool {
        !self.queue.is_empty() || !self.responses.is_empty() || self.in_service > 0
    }

    /// Whether any request is waiting in the scheduling queue.
    pub(crate) fn has_queued(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Whether any completed response is waiting to be delivered.
    pub(crate) fn has_responses(&self) -> bool {
        !self.responses.is_empty()
    }

    /// Whether the queue head has waited past the starvation cap at `now`
    /// (the window has collapsed to it).
    #[cfg(test)]
    pub(crate) fn starved(&self, now: Cycle) -> bool {
        self.queue
            .front()
            .is_some_and(|head| now.since(head.arrived) > self.cfg.starvation_cap)
    }

    /// The FR-FCFS scheduling window, shrunk to the head alone once the
    /// head exceeds the starvation cap.
    fn window(&self, now: Cycle) -> usize {
        match self.queue.front() {
            Some(head) if now.since(head.arrived) > self.cfg.starvation_cap => 1,
            _ => self.cfg.frfcfs_window.min(self.queue.len()),
        }
    }

    /// One cycle: *serve* at most one ready row hit over the data bus, and
    /// *prep* (precharge/activate) at most one bank for a queued miss.
    /// Splitting serve from prep lets transfers from open rows proceed
    /// while other banks activate — the overlap a real controller relies
    /// on for bandwidth under row conflicts.
    ///
    /// Returns whether anything was served or prepped this cycle.
    pub(crate) fn tick(&mut self, now: Cycle, stats: &mut DramStats) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        let mut acted = false;
        let window = self.window(now);

        // Serve phase: oldest windowed request whose row is open and
        // ready, if the bus is free.
        if self.bus_free_at <= now {
            let serve = (0..window).find(|&i| {
                let e = &self.queue[i];
                self.banks[e.loc.bank as usize].is_ready_hit(e.loc.row, now)
            });
            if let Some(idx) = serve {
                acted = true;
                let entry = self.queue.remove(idx).expect("index in window");
                if !entry.counted {
                    stats.row_hits.record(true);
                }
                let is_write = entry.req.is_store;
                let switch = if is_write != self.last_was_write {
                    self.cfg.t_switch
                } else {
                    0
                };
                let data_start = now + switch;
                let data_end = data_start + self.cfg.t_burst;
                self.bus_free_at = data_end;
                self.last_was_write = is_write;
                self.banks[entry.loc.bank as usize].note_data_end(data_end);
                if is_write {
                    stats.writes.inc();
                } else {
                    stats.reads.inc();
                    if entry.req.wants_response() {
                        let ready = data_start + self.cfg.t_cas + self.cfg.t_burst;
                        self.in_service += 1;
                        self.responses
                            .push_back((ready, MemResp::for_req(&entry.req)));
                        // Keep responses ordered by readiness for pop.
                        let n = self.responses.len();
                        if n >= 2 && self.responses[n - 2].0 > self.responses[n - 1].0 {
                            let last = self.responses.pop_back().expect("nonempty");
                            let pos = self
                                .responses
                                .iter()
                                .position(|(c, _)| *c > last.0)
                                .unwrap_or(self.responses.len());
                            self.responses.insert(pos, last);
                        }
                    }
                }
            }
        }

        // Prep phase: for the oldest windowed request whose row is not
        // open, start the precharge/activate — unless an older or equal
        // windowed request still wants the currently open row of that bank
        // (never close a row with pending window hits, except under
        // starvation).
        let window = self.window(now);
        for i in 0..window {
            let (bank_idx, row) = {
                let e = &self.queue[i];
                (e.loc.bank as usize, e.loc.row)
            };
            let bank = &self.banks[bank_idx];
            if bank.row_ready_at() > now {
                continue; // mid-prep
            }
            match bank.open_row() {
                Some(open) if open == row => continue, // will be served
                open => {
                    let keeps_open_row_busy =
                        open.is_some()
                            && window > 1
                            && self.queue.iter().take(window).any(|o| {
                                o.loc.bank as usize == bank_idx && Some(o.loc.row) == open
                            });
                    if keeps_open_row_busy {
                        continue;
                    }
                    let (outcome, _) = self.banks[bank_idx].access(
                        row,
                        now,
                        self.cfg.t_activate,
                        self.cfg.t_precharge,
                    );
                    match outcome {
                        RowOutcome::Hit => unreachable!("row was not open"),
                        RowOutcome::Closed => {
                            stats.row_hits.record(false);
                            stats.row_closed.inc();
                        }
                        RowOutcome::Conflict => {
                            stats.row_hits.record(false);
                            stats.row_conflicts.inc();
                        }
                    }
                    self.queue[i].counted = true;
                    acted = true;
                    break; // one prep per cycle
                }
            }
        }
        acted
    }

    /// The earliest cycle at or after `now` at which this channel might
    /// act — serve a windowed row hit, start a precharge/activate, cross
    /// the starvation boundary, or have a response become deliverable —
    /// or `None` when it is completely idle.
    ///
    /// Conservative by design: it may name a cycle where arbitration
    /// still blocks everything (the caller just steps once and asks
    /// again), but it never reports a cycle *later* than the first one
    /// where [`Channel::tick`] or [`Channel::pop_response`] would do
    /// work. Any candidate at or before `now` therefore collapses to
    /// `now`, signalling "active, do not skip" — and ends the walk, since
    /// no candidate can beat it.
    pub(crate) fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        // Records a candidate; true once the answer is `now`.
        let consider = |next: &mut Option<Cycle>, at: Cycle| {
            let at = at.max(now);
            if next.is_none_or(|n| at < n) {
                *next = Some(at);
            }
            at == now
        };
        if let Some((ready, _)) = self.responses.front() {
            if consider(&mut next, *ready) {
                return next;
            }
        }
        if let Some(head) = self.queue.front() {
            // Crossing the starvation boundary collapses the FR-FCFS
            // window to the head alone, which can unblock a prep that
            // `keeps_open_row_busy` was holding back.
            let collapse = head.arrived + self.cfg.starvation_cap + 1;
            if collapse > now {
                consider(&mut next, collapse);
            }
            for e in self.queue.iter().take(self.window(now)) {
                let bank = &self.banks[e.loc.bank as usize];
                let at = if bank.open_row() == Some(e.loc.row) {
                    // Serve: needs the shared bus and the activate done.
                    self.bus_free_at.max(bank.row_ready_at())
                } else {
                    // Prep: possible once the bank's current activate
                    // finishes (earlier candidates mean arbitration is
                    // the blocker; the clamp keeps us stepping).
                    bank.row_ready_at()
                };
                if consider(&mut next, at) {
                    return next;
                }
            }
        }
        next
    }

    pub(crate) fn pop_response(&mut self, now: Cycle) -> Option<MemResp> {
        match self.responses.front() {
            Some((ready, _)) if *ready <= now => {
                self.in_service -= 1;
                self.responses.pop_front().map(|(_, r)| r)
            }
            _ => None,
        }
    }
}

impl Sentinel for Channel {
    fn check_invariants(&self, component: &str, out: &mut Vec<InvariantViolation>) {
        if self.queue.len() > self.cfg.queue_capacity {
            out.push(InvariantViolation {
                component: component.to_string(),
                invariant: "dram_queue_occupancy",
                detail: format!(
                    "{} queued requests > capacity {}",
                    self.queue.len(),
                    self.cfg.queue_capacity
                ),
            });
        }
        // Every read taken into service must still be accounted for by an
        // undelivered response: a drift here means a response was created
        // or consumed without balancing the in-service counter.
        if self.in_service != self.responses.len() {
            out.push(InvariantViolation {
                component: component.to_string(),
                invariant: "response_accounting",
                detail: format!(
                    "{} reads in service but {} undelivered responses",
                    self.in_service,
                    self.responses.len()
                ),
            });
        }
        let mut disordered = false;
        let mut prev: Option<Cycle> = None;
        for (ready, _) in &self.responses {
            if prev.is_some_and(|p| p > *ready) {
                disordered = true;
                break;
            }
            prev = Some(*ready);
        }
        if disordered {
            out.push(InvariantViolation {
                component: component.to_string(),
                invariant: "response_ordering",
                detail: "response readiness times are not monotonic".to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AddressMap;
    use miopt_engine::{AccessKind, LineAddr, Origin, Pc, ReqId};

    fn mk_read(id: u64, line: u64) -> MemReq {
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

    fn setup() -> (Channel, AddressMap, DramConfig) {
        let cfg = DramConfig::tiny_test();
        (Channel::new(cfg.clone()), AddressMap::new(&cfg), cfg)
    }

    #[test]
    fn frfcfs_prefers_ready_row_hit() {
        let (mut ch, map, cfg) = setup();
        let mut stats = DramStats::default();
        // Open row 0 of bank 0 (channel 0): line 0.
        let l0 = 0u64;
        ch.push(Cycle(0), mk_read(0, l0), map.locate(LineAddr(l0)))
            .unwrap();
        let mut now = Cycle(0);
        let mut order = Vec::new();
        while order.is_empty() {
            ch.tick(now, &mut stats);
            while let Some(r) = ch.pop_response(now) {
                order.push(r.id.0);
            }
            now += 1;
        }
        // Row 0 is now open and ready. Enqueue: first a conflicting row,
        // then a row hit. FR-FCFS should service the hit first.
        let bank_stride = u64::from(cfg.channels) * cfg.lines_per_row * u64::from(cfg.banks);
        let conflict_line = bank_stride; // channel 0, bank 0, row 1
        let hit_line = 1; // channel 0, bank 0, row 0, column 1
        ch.push(
            now,
            mk_read(1, conflict_line),
            map.locate(LineAddr(conflict_line)),
        )
        .unwrap();
        ch.push(now, mk_read(2, hit_line), map.locate(LineAddr(hit_line)))
            .unwrap();
        let mut guard = 0;
        while order.len() < 3 {
            ch.tick(now, &mut stats);
            while let Some(r) = ch.pop_response(now) {
                order.push(r.id.0);
            }
            now += 1;
            guard += 1;
            assert!(guard < 10_000);
        }
        assert_eq!(
            order,
            vec![0, 2, 1],
            "row hit should be serviced before conflict"
        );
        assert!(stats.row_hits.hits() >= 1);
    }

    #[test]
    fn starvation_cap_forces_oldest() {
        let cfg = DramConfig {
            starvation_cap: 0,
            ..DramConfig::tiny_test()
        };
        let map = AddressMap::new(&cfg);
        let mut ch = Channel::new(cfg.clone());
        let mut stats = DramStats::default();
        // Open a row, then enqueue conflict-then-hit; with cap 0 the oldest
        // (conflict) must go first.
        ch.push(Cycle(0), mk_read(0, 0), map.locate(LineAddr(0)))
            .unwrap();
        let mut now = Cycle(0);
        while stats.reads.get() < 1 {
            ch.tick(now, &mut stats);
            now += 1;
        }
        let bank_stride = u64::from(cfg.channels) * cfg.lines_per_row * u64::from(cfg.banks);
        ch.push(
            now,
            mk_read(1, bank_stride),
            map.locate(LineAddr(bank_stride)),
        )
        .unwrap();
        now += 1; // make the first entry older than cap 0
        ch.push(now, mk_read(2, 1), map.locate(LineAddr(1)))
            .unwrap();
        let mut order = Vec::new();
        let mut guard = 0;
        while order.len() < 3 {
            ch.tick(now, &mut stats);
            while let Some(r) = ch.pop_response(now) {
                order.push(r.id.0);
            }
            now += 1;
            guard += 1;
            assert!(guard < 10_000);
        }
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn read_write_switch_costs_time() {
        let (mut ch, map, _cfg) = setup();
        // Interleaved read/write to the same open row.
        let mut stats = DramStats::default();
        let mut now = Cycle(0);
        for i in 0..8u64 {
            let line = i; // one open row
            let mut req = mk_read(i, line);
            if i % 2 == 1 {
                req.is_store = true;
                req.origin = Origin::Internal;
            }
            ch.push(now, req, map.locate(LineAddr(line))).unwrap();
        }
        let interleaved_end = {
            let mut guard = 0;
            while ch.busy() {
                ch.tick(now, &mut stats);
                while ch.pop_response(now).is_some() {}
                now += 1;
                guard += 1;
                assert!(guard < 100_000);
            }
            now
        };

        // Same traffic, reads then writes grouped.
        let (mut ch2, map2, _cfg2) = setup();
        let mut stats2 = DramStats::default();
        let mut now2 = Cycle(0);
        for i in 0..8u64 {
            let line = i;
            let mut req = mk_read(i, line);
            if i >= 4 {
                req.is_store = true;
                req.origin = Origin::Internal;
            }
            ch2.push(now2, req, map2.locate(LineAddr(line))).unwrap();
        }
        let grouped_end = {
            let mut guard = 0;
            while ch2.busy() {
                ch2.tick(now2, &mut stats2);
                while ch2.pop_response(now2).is_some() {}
                now2 += 1;
                guard += 1;
                assert!(guard < 100_000);
            }
            now2
        };
        assert!(
            grouped_end < interleaved_end,
            "grouped {grouped_end:?} vs interleaved {interleaved_end:?}"
        );
    }
}
