//! The FR-FCFS channel scheduler as it was before per-bank window state:
//! every tick and every `next_event` rescans the window. Kept verbatim as
//! the lockstep reference for [`crate::channel::Channel`].

#![allow(dead_code)]

use crate::bank::{Bank, RowOutcome};
use crate::map::DramLoc;
use crate::{DramConfig, DramStats};
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

impl Channel {
    /// Whether a windowed request's prep is held back at `now` only
    /// because the window still holds a hit for its bank's open row.
    pub(crate) fn holds_a_prep(&self, now: Cycle) -> bool {
        let window = self.window(now);
        window > 1
            && self.queue.iter().take(window).any(|e| {
                let bank = &self.banks[e.loc.bank as usize];
                bank.row_ready_at() <= now
                    && bank.open_row().is_some_and(|open| {
                        open != e.loc.row
                            && self
                                .queue
                                .iter()
                                .take(window)
                                .any(|o| o.loc.bank == e.loc.bank && o.loc.row == open)
                    })
            })
    }

    pub(crate) fn snapshot(&self) -> crate::channel::Snapshot {
        crate::channel::Snapshot {
            queue: self.queue.iter().map(|e| (e.req.id.0, e.counted)).collect(),
            banks: self.banks.clone(),
            bus_free_at: self.bus_free_at,
            last_was_write: self.last_was_write,
            responses: self.responses.iter().map(|(c, r)| (*c, r.id.0)).collect(),
        }
    }
}

/// The memory system over reference channels, walked in full: every
/// channel ticked, every channel asked for its next event, every channel
/// probed for responses.
#[derive(Debug)]
pub(crate) struct Dram {
    map: crate::AddressMap,
    pub(crate) channels: Vec<Channel>,
    stats: DramStats,
}

impl Dram {
    pub(crate) fn new(cfg: DramConfig) -> Dram {
        Dram {
            map: crate::AddressMap::new(&cfg),
            channels: (0..cfg.channels)
                .map(|_| Channel::new(cfg.clone()))
                .collect(),
            stats: DramStats::default(),
        }
    }

    pub(crate) fn push(&mut self, now: Cycle, req: MemReq) -> Result<(), MemReq> {
        let loc = self.map.locate(req.line);
        self.channels[loc.channel as usize].push(now, req, loc)
    }

    pub(crate) fn tick(&mut self, now: Cycle) -> bool {
        let mut acted = false;
        for ch in &mut self.channels {
            acted |= ch.tick(now, &mut self.stats);
        }
        acted
    }

    pub(crate) fn pop_response_from(&mut self, now: Cycle, cursor: &mut usize) -> Option<MemResp> {
        while *cursor < self.channels.len() {
            if let Some(resp) = self.channels[*cursor].pop_response(now) {
                return Some(resp);
            }
            *cursor += 1;
        }
        None
    }

    /// The conservative bound of the full walk: never later than the
    /// first cycle a channel acts, but possibly earlier.
    pub(crate) fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.channels
            .iter()
            .filter_map(|ch| ch.next_event(now))
            .min()
    }

    /// Whether a response is deliverable at `now` on some channel.
    pub(crate) fn response_ready(&self, now: Cycle) -> bool {
        self.channels
            .iter()
            .any(|ch| ch.responses.front().is_some_and(|(at, _)| *at <= now))
    }

    pub(crate) fn stats(&self) -> &DramStats {
        &self.stats
    }
}
