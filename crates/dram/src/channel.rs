use crate::bank::{Bank, RowOutcome};
use crate::map::DramLoc;
use crate::{DramConfig, DramStats};
use miopt_engine::sentinel::{InvariantViolation, Sentinel};
use miopt_engine::util::bits;
use miopt_engine::{Cycle, MemReq, MemResp};
use std::collections::VecDeque;

/// A queued request with its bank, row and arrival time.
#[derive(Debug, Clone)]
struct Entry {
    req: MemReq,
    row: u64,
    arrived: Cycle,
    bank: u16,
    /// Whether the row-buffer outcome was already recorded (at prep time
    /// for misses/conflicts).
    counted: bool,
}

/// One HBM2 channel: a request queue, an FR-FCFS scheduler, a shared data
/// bus, and a set of banks.
///
/// The scheduler keeps the FR-FCFS window (the first `frfcfs_window`
/// queued requests) as bit masks over its positions: per bank, where its
/// requests sit, and which positions want their bank's open row. From
/// them follow two bank masks, `hit_banks` and `want_banks`, which answer
/// "can this channel act at `now`" and "when will it next act" in word
/// operations over the banks, and the oldest request a serve or prep
/// takes is the lowest set bit of a union of bank masks. The masks change
/// only when a request enters or leaves the window or a bank opens a row.
#[derive(Debug)]
pub(crate) struct Channel {
    cfg: DramConfig,
    queue: VecDeque<Entry>,
    banks: Vec<Bank>,
    /// Per bank, the window positions (queue indices) of its requests.
    slots: Vec<u64>,
    /// Window positions whose request is for its bank's open row.
    hit_slots: u64,
    /// Banks with a windowed request for their open row.
    hit_banks: u64,
    /// Banks with a windowed request for another row (or a closed bank).
    want_banks: u64,
    bus_free_at: Cycle,
    last_was_write: bool,
    responses: VecDeque<(Cycle, MemResp)>,
    in_service: usize,
}

/// A channel's whole scheduling state, for lockstep comparisons.
#[cfg(test)]
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Snapshot {
    /// Queued request ids, oldest first, with whether each was prepped.
    pub(crate) queue: Vec<(u64, bool)>,
    pub(crate) banks: Vec<Bank>,
    pub(crate) bus_free_at: Cycle,
    pub(crate) last_was_write: bool,
    /// Undelivered responses: ready cycle and request id.
    pub(crate) responses: Vec<(Cycle, u64)>,
}

/// The window's bank masks, as kept or as recounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BankMasks {
    hit: u64,
    want: u64,
}

/// The bits of `m` below position `p` (all of them from 64 on).
fn below(m: u64, p: usize) -> u64 {
    m & 1u64.checked_shl(p as u32).map_or(u64::MAX, |bit| bit - 1)
}

/// `m` with bit `p` taken out and the bits above it moved down one.
fn remove_bit(m: u64, p: usize) -> u64 {
    below(m, p) | (m >> 1 & !below(u64::MAX, p))
}

impl Channel {
    /// # Panics
    ///
    /// Panics if the configuration has more than 64 banks or a window of
    /// more than 64 requests (the masks are single words).
    pub(crate) fn new(cfg: DramConfig) -> Channel {
        assert!(cfg.banks <= 64, "bank masks are a u64");
        assert!(cfg.frfcfs_window <= 64, "window masks are a u64");
        let banks = (0..cfg.banks).map(|_| Bank::new()).collect();
        // Both queues are bounded — requests by `queue_capacity`, responses
        // by the requests in flight — so pre-sizing them keeps steady-state
        // traffic off the heap.
        let queue = VecDeque::with_capacity(cfg.queue_capacity);
        let responses = VecDeque::with_capacity(cfg.queue_capacity.max(16));
        Channel {
            slots: vec![0; usize::from(cfg.banks)],
            cfg,
            queue,
            banks,
            hit_slots: 0,
            hit_banks: 0,
            want_banks: 0,
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
            row: loc.row,
            bank: loc.bank,
            arrived: now,
            counted: false,
        });
        if self.queue.len() <= self.cfg.frfcfs_window {
            self.enter_window(self.queue.len() - 1);
        }
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
    #[cfg(test)]
    pub(crate) fn has_responses(&self) -> bool {
        !self.responses.is_empty()
    }

    /// When the oldest undelivered response becomes deliverable.
    pub(crate) fn response_ready_at(&self) -> Option<Cycle> {
        self.responses.front().map(|(ready, _)| *ready)
    }

    /// Whether the queue head has waited past the starvation cap at `now`
    /// (the window has collapsed to it).
    #[cfg(test)]
    pub(crate) fn starved(&self, now: Cycle) -> bool {
        self.queue
            .front()
            .is_some_and(|head| now.since(head.arrived) > self.cfg.starvation_cap)
    }

    /// The first cycle at which the head has waited past the starvation
    /// cap: from then on the window is the head alone.
    fn collapse_at(&self, head: &Entry) -> Cycle {
        Cycle(
            head.arrived
                .0
                .saturating_add(self.cfg.starvation_cap)
                .saturating_add(1),
        )
    }

    /// The FR-FCFS scheduling window, shrunk to the head alone once the
    /// head exceeds the starvation cap.
    fn window(&self, now: Cycle) -> usize {
        match self.queue.front() {
            Some(head) if now >= self.collapse_at(head) => 1,
            _ => self.cfg.frfcfs_window.min(self.queue.len()),
        }
    }

    /// Sets bank `b`'s bits of the bank masks from the window masks.
    fn refresh_masks(&mut self, b: usize) {
        let (slots, bit) = (self.slots[b], 1u64 << b);
        let hit = slots & self.hit_slots != 0;
        let want = slots & !self.hit_slots != 0;
        self.hit_banks = (self.hit_banks & !bit) | u64::from(hit) << b;
        self.want_banks = (self.want_banks & !bit) | u64::from(want) << b;
    }

    /// The request at queue index `p` has joined the window.
    fn enter_window(&mut self, p: usize) {
        let e = &self.queue[p];
        let b = usize::from(e.bank);
        let hit = self.banks[b].open_row() == Some(e.row);
        self.slots[b] |= 1 << p;
        self.hit_slots |= u64::from(hit) << p;
        self.refresh_masks(b);
    }

    /// The request at window position `p`, of bank `b`, has left the
    /// queue: the positions above it move down one, and the request that
    /// becomes the window's last (if any) joins it.
    fn leave_window(&mut self, p: usize, b: usize) {
        for c in bits(self.hit_banks | self.want_banks) {
            self.slots[c] = remove_bit(self.slots[c], p);
        }
        self.hit_slots = remove_bit(self.hit_slots, p);
        self.refresh_masks(b);
        if self.queue.len() >= self.cfg.frfcfs_window {
            self.enter_window(self.cfg.frfcfs_window - 1);
        }
    }

    /// Bank `b` opened a new row: re-marks which of its windowed
    /// requests want it.
    fn reopen(&mut self, b: usize) {
        let open = self.banks[b].open_row();
        let hits = bits(self.slots[b])
            .filter(|&p| Some(self.queue[p].row) == open)
            .fold(0, |m, p| m | 1 << p);
        self.hit_slots = (self.hit_slots & !self.slots[b]) | hits;
        self.refresh_masks(b);
    }

    /// The bank masks recounted from the window itself: what the kept
    /// masks must equal (the `bank_masks_match_window` invariant).
    pub(crate) fn recount_masks(&self) -> BankMasks {
        let n = self.cfg.frfcfs_window.min(self.queue.len());
        let mut m = BankMasks { hit: 0, want: 0 };
        for e in self.queue.iter().take(n) {
            let b = usize::from(e.bank);
            if self.banks[b].open_row() == Some(e.row) {
                m.hit |= 1 << b;
            } else {
                m.want |= 1 << b;
            }
        }
        m
    }

    /// Whether the window position masks place every windowed request at
    /// its position under its bank, mark exactly the hits, and hold
    /// nothing else.
    fn slots_match_window(&self) -> bool {
        let n = self.cfg.frfcfs_window.min(self.queue.len());
        let placed = self.queue.iter().take(n).enumerate().all(|(p, e)| {
            let b = usize::from(e.bank);
            let hit = self.banks[b].open_row() == Some(e.row);
            self.slots[b] >> p & 1 != 0 && (self.hit_slots >> p & 1 != 0) == hit
        });
        let held: u32 = self.slots.iter().map(|s| s.count_ones()).sum();
        placed && held as usize == n && self.hit_slots == below(self.hit_slots, n)
    }

    /// The banks whose row is ready (no activate under way) at `now`.
    fn ready_banks(&self, now: Cycle) -> u64 {
        self.banks.iter().enumerate().fold(0, |m, (b, bank)| {
            m | u64::from(bank.row_ready_at() <= now) << b
        })
    }

    /// The earliest `row_ready_at` among the banks of `mask`.
    fn earliest_ready(&self, mask: u64) -> Option<Cycle> {
        bits(mask).map(|b| self.banks[b].row_ready_at()).min()
    }

    /// Banks that keep their open row while the window holds a hit for
    /// it: every bank with a windowed hit, unless the window is one
    /// request.
    fn held_banks(&self, masks: BankMasks) -> u64 {
        if self.cfg.frfcfs_window.min(self.queue.len()) > 1 {
            masks.hit
        } else {
            0
        }
    }

    /// The banks that can *serve* and the banks that can *prep* at `now`,
    /// given the `ready` banks and the bus as it stands. Under starvation
    /// only the head's bank can be either.
    fn candidates(&self, now: Cycle, ready: u64) -> (u64, u64) {
        let Some(head) = self.queue.front() else {
            return (0, 0);
        };
        let bus_free = self.bus_free_at <= now;
        if now >= self.collapse_at(head) {
            let b = usize::from(head.bank);
            let bit = ready & 1 << b;
            return if self.banks[b].open_row() == Some(head.row) {
                (if bus_free { bit } else { 0 }, 0)
            } else {
                (0, bit)
            };
        }
        let masks = BankMasks {
            hit: self.hit_banks,
            want: self.want_banks,
        };
        let serve = if bus_free { masks.hit & ready } else { 0 };
        (serve, masks.want & !self.held_banks(masks) & ready)
    }

    /// The queue index of the oldest windowed request on a bank of `mask`
    /// whose row is open (`hit`) or not.
    fn oldest(&self, now: Cycle, mask: u64, hit: bool) -> usize {
        let on_banks = bits(mask).fold(0, |m, b| m | self.slots[b]);
        let hits = if hit { self.hit_slots } else { !self.hit_slots };
        let p = below(on_banks & hits, self.window(now)).trailing_zeros() as usize;
        assert!(p < 64, "a candidate bank has a windowed request");
        p
    }

    /// One cycle: *serve* at most one ready row hit over the data bus, and
    /// *prep* (precharge/activate) at most one bank for a queued miss.
    /// Splitting serve from prep lets transfers from open rows proceed
    /// while other banks activate — the overlap a real controller relies
    /// on for bandwidth under row conflicts.
    ///
    /// Serve takes the oldest windowed request whose row is open and
    /// ready, if the bus is free. Prep takes the oldest windowed request
    /// whose row is not open, on a bank not mid-activate — unless the
    /// window still holds a hit for that bank's open row (a row with
    /// pending window hits is never closed, except under starvation).
    ///
    /// Returns whether anything was served or prepped this cycle.
    pub(crate) fn tick(&mut self, now: Cycle, stats: &mut DramStats) -> bool {
        // A serve moves no activate, so the ready banks hold for both
        // phases; it may change the window (and its head), so prep's
        // candidates are asked for again after one. `ready` covers every
        // bank, not just the window's: the request a serve brings into
        // the window may be on a bank the window did not hold.
        let ready = self.ready_banks(now);
        let (serve, mut prep) = self.candidates(now, ready);
        if serve != 0 {
            let idx = self.oldest(now, serve, true);
            self.serve(idx, now, stats);
            prep = self.candidates(now, ready).1;
        }
        if prep != 0 {
            let idx = self.oldest(now, prep, false);
            self.prep(idx, now, stats);
        }
        serve | prep != 0
    }

    /// Takes the row hit at queue index `idx` over the data bus.
    fn serve(&mut self, idx: usize, now: Cycle, stats: &mut DramStats) {
        let entry = self.queue.remove(idx).expect("index in window");
        let b = usize::from(entry.bank);
        self.leave_window(idx, b);
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
        self.banks[b].note_data_end(data_end);
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

    /// Starts the precharge/activate for the request at queue index `idx`.
    fn prep(&mut self, idx: usize, now: Cycle, stats: &mut DramStats) {
        let Entry { bank, row, .. } = self.queue[idx];
        let b = usize::from(bank);
        let (outcome, _) =
            self.banks[b].access(row, now, self.cfg.t_activate, self.cfg.t_precharge);
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
        self.queue[idx].counted = true;
        self.reopen(b);
    }

    /// The first cycle at or after `from` at which [`Channel::tick`]
    /// serves or preps, with the window's bank masks taken from `masks`;
    /// `None` on an empty queue. Exact until a push changes the masks:
    /// until the channel acts, only the clock moves, and the clock changes
    /// the outcome only through the banks' activates, the bus, and the
    /// starvation collapse.
    fn next_action_with(&self, masks: BankMasks, from: Cycle) -> Option<Cycle> {
        let head = self.queue.front()?;
        let collapse = self.collapse_at(head);
        if from < collapse {
            // FR-FCFS over the whole window: the first windowed hit once
            // its row and the bus are ready, or the first miss on a bank
            // that is neither activating nor held open for a hit.
            let serve = self
                .earliest_ready(masks.hit)
                .map(|at| at.max(self.bus_free_at));
            let prep = self.earliest_ready(masks.want & !self.held_banks(masks));
            let at = match (serve, prep) {
                (Some(s), Some(p)) => s.min(p),
                (s, p) => s.or(p).expect("a nonempty window hits or misses"),
            };
            if at.max(from) < collapse {
                return Some(at.max(from));
            }
        }
        // From the collapse on, the head alone.
        let bank = &self.banks[usize::from(head.bank)];
        let at = if bank.open_row() == Some(head.row) {
            bank.row_ready_at().max(self.bus_free_at)
        } else {
            bank.row_ready_at()
        };
        Some(at.max(collapse).max(from))
    }

    /// The first cycle at or after `from` at which [`Channel::tick`] acts,
    /// from the kept bank masks: O(banks), and exact until the next push.
    pub(crate) fn next_action(&self, from: Cycle) -> Option<Cycle> {
        let masks = BankMasks {
            hit: self.hit_banks,
            want: self.want_banks,
        };
        self.next_action_with(masks, from)
    }

    /// [`Channel::next_action`] from masks recounted over the window: the
    /// fresh full computation a cached next action is checked against.
    pub(crate) fn next_action_recounted(&self, from: Cycle) -> Option<Cycle> {
        self.next_action_with(self.recount_masks(), from)
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

    #[cfg(test)]
    pub(crate) fn snapshot(&self) -> Snapshot {
        Snapshot {
            queue: self.queue.iter().map(|e| (e.req.id.0, e.counted)).collect(),
            banks: self.banks.clone(),
            bus_free_at: self.bus_free_at,
            last_was_write: self.last_was_write,
            responses: self.responses.iter().map(|(c, r)| (*c, r.id.0)).collect(),
        }
    }
}

impl Sentinel for Channel {
    fn check_invariants(&self, component: &str, out: &mut Vec<InvariantViolation>) {
        let kept = BankMasks {
            hit: self.hit_banks,
            want: self.want_banks,
        };
        let recounted = self.recount_masks();
        if kept != recounted || !self.slots_match_window() {
            out.push(InvariantViolation {
                component: component.to_string(),
                invariant: "bank_masks_match_window",
                detail: format!(
                    "kept hit/want banks {:#x}/{:#x}, window recount {:#x}/{:#x}; \
                     hit positions {:#x}, bank positions {:x?}",
                    kept.hit, kept.want, recounted.hit, recounted.want, self.hit_slots, self.slots
                ),
            });
        }
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
