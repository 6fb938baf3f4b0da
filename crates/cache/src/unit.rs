use crate::config::{CacheConfig, LevelPolicy};
use crate::dbi::DirtyBlockIndex;
use crate::mshr::{MshrReject, MshrTable};
use crate::predictor::PcPredictor;
use crate::stats::CacheStats;
use crate::tags::{LineState, TagArray, Victim};
use miopt_engine::sentinel::{InvariantViolation, Sentinel};
use miopt_engine::{Cycle, LineAddr, MemReq, MemResp, ReqId, TimedQueue};

/// What the cache did with an accepted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Load hit; a response was pushed to the upstream queue.
    Hit,
    /// Load merged into an outstanding miss; it will be answered by the
    /// fill.
    Merged,
    /// Load miss; the line was allocated (busy) and the request forwarded.
    MissForwarded,
    /// Load forwarded without allocation (disabled level, predictor bypass,
    /// or allocation bypass).
    BypassForwarded,
    /// Store absorbed into a (now dirty) line; nothing forwarded.
    StoreAbsorbed,
    /// Store forwarded downstream (write-through or bypass).
    StoreForwarded,
}

/// Why the cache could not accept a request this cycle. The caller must
/// leave the request at the head of its queue and retry next cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Blocked {
    /// MSHR table has no free entry.
    MshrFull,
    /// Every way of the target set holds a pending line (allocation
    /// blocking — removed by the allocation-bypass optimization).
    SetBusy,
    /// The line is pending but its merge list is full.
    MergeFull,
    /// Not enough room in the downstream queue for the requests this
    /// access must emit (forward and/or writeback).
    OutQueueFull,
    /// No room in the upstream response queue for a hit response.
    RespQueueFull,
    /// Tag-port budget for this cycle is exhausted.
    PortBusy,
}

/// One physical cache: an L1 (per compute unit) or one slice of the shared
/// L2, depending on the [`CacheConfig`] and [`LevelPolicy`] it is built
/// with.
///
/// See the crate-level documentation for the driving protocol.
#[derive(Debug)]
pub struct CacheUnit {
    cfg: CacheConfig,
    policy: LevelPolicy,
    tags: TagArray,
    mshr: MshrTable,
    dbi: Option<DirtyBlockIndex>,
    predictor: Option<PcPredictor>,
    stats: CacheStats,
    wb_counter: u64,
    wb_base: u64,
    port_cycle: Cycle,
    port_used: u32,
    pending_flush: Vec<LineAddr>,
    replay: std::collections::VecDeque<MemReq>,
    /// Reusable buffer for DBI rinse sets (kept empty between calls).
    row_scratch: Vec<LineAddr>,
    /// The blocked `service` call this unit sleeps on, if any.
    blocked: Option<Blockage>,
    service_calls: ServiceCalls,
}

/// Host-side cost counters of [`CacheUnit::service`], not simulated
/// statistics (see [`CacheUnit::service_calls`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceCalls {
    /// `service` calls executed.
    pub executed: u64,
    /// Executed calls that were blocked retries: work was ready and
    /// nothing was consumed.
    pub blocked: u64,
    /// Blocked retries never executed: the cycles a unit slept through,
    /// booked in closed form by [`CacheUnit::settle`].
    pub settled: u64,
}

impl ServiceCalls {
    /// Sums another unit's counters into this one.
    pub fn merge(&mut self, other: &ServiceCalls) {
        self.executed += other.executed;
        self.blocked += other.blocked;
        self.settled += other.settled;
    }
}

/// A [`CacheUnit::service`] call that held ready work and consumed none
/// of it. Such a call is a fixed point: its outcome is a function of the
/// replay front, the ready input head, the free slots of `down` and `up`
/// and the MSHR/tag state, it leaves all of those as it found them (the
/// tag port is released on `Err`), and all it changes is `delta`. Until
/// one of those inputs changes, every later call would book the same
/// `delta` — so the calls need not be made.
#[derive(Debug, Clone, Copy)]
struct Blockage {
    /// First cycle of this unbroken run of blocked calls (diagnostics;
    /// the same under either driver).
    since: Cycle,
    /// Cycle of the blocked call itself, the last one executed.
    called: Cycle,
    /// Last cycle whose retry is booked, by that call or by `settle`.
    booked: Cycle,
    /// What one retry adds, in [`CacheStats::retry_counters`] order.
    delta: [u64; 6],
    /// Free slots the blocked call saw downstream and upstream; a
    /// difference without a pending wake is a lost credit edge.
    down_free: usize,
    up_free: usize,
}

/// Capacity of the miss-replay buffer (requests set aside while blocked on
/// cache resources, letting younger requests proceed).
const REPLAY_CAPACITY: usize = 4;

impl CacheUnit {
    /// Builds a cache. `instance` must be unique among all caches in the
    /// system (it namespaces writeback request ids).
    ///
    /// # Panics
    ///
    /// Panics if the configuration or policy is invalid (see
    /// [`CacheConfig::validate`] and [`LevelPolicy::validate`]).
    #[must_use]
    pub fn new(cfg: CacheConfig, policy: LevelPolicy, instance: u32) -> CacheUnit {
        cfg.validate().expect("invalid cache config");
        policy.validate().expect("invalid level policy");
        if let Some(p) = policy.partition {
            p.validate(cfg.ways).expect("invalid way partition");
        }
        let dbi = if policy.rinse {
            let map = policy.row_map.expect("validated above");
            Some(DirtyBlockIndex::new(cfg.dbi_rows.max(1), map))
        } else {
            None
        };
        let predictor = policy.pc_bypass.clone().map(PcPredictor::new);
        CacheUnit {
            tags: TagArray::new(cfg.sets, cfg.ways, cfg.index_low_bits, cfg.index_skip_bits),
            mshr: MshrTable::new(
                cfg.mshr_entries,
                cfg.mshr_merge_cap,
                cfg.sets,
                cfg.index_low_bits,
                cfg.index_skip_bits,
            ),
            dbi,
            predictor,
            stats: CacheStats::default(),
            wb_counter: 0,
            wb_base: (1 << 62) | (u64::from(instance) << 32),
            port_cycle: Cycle::ZERO,
            port_used: 0,
            pending_flush: Vec::new(),
            replay: std::collections::VecDeque::with_capacity(REPLAY_CAPACITY),
            row_scratch: Vec::with_capacity(16),
            blocked: None,
            service_calls: ServiceCalls::default(),
            cfg,
            policy,
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The level policy in force.
    #[must_use]
    pub fn policy(&self) -> &LevelPolicy {
        &self.policy
    }

    /// Replaces the level policy in force.
    ///
    /// Meant for kernel boundaries in multi-tenant serving, where a
    /// drained, flushed and self-invalidated cache switches to the next
    /// tenant's policy. The dirty-block index is rebuilt when the rinse
    /// configuration changes, and the PC predictor when the predictor
    /// configuration changes; an unchanged predictor keeps its training
    /// (a partition or store-policy switch alone does not reset it).
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid or its partition does not fit
    /// this cache's geometry, or if the cache is busy (outstanding
    /// fills, parked replays, an in-progress flush, or a blocked request
    /// it sleeps on) — callers switch policies only at drained kernel
    /// boundaries.
    pub fn set_policy(&mut self, policy: LevelPolicy) {
        policy.validate().expect("invalid level policy");
        if let Some(p) = policy.partition {
            p.validate(self.cfg.ways).expect("invalid way partition");
        }
        assert!(
            !self.busy() && self.blocked.is_none(),
            "set_policy while cache busy"
        );
        if policy.rinse != self.policy.rinse || policy.row_map != self.policy.row_map {
            self.dbi = if policy.rinse {
                let map = policy.row_map.expect("validated above");
                Some(DirtyBlockIndex::new(self.cfg.dbi_rows.max(1), map))
            } else {
                None
            };
        }
        if policy.pc_bypass != self.policy.pc_bypass {
            self.predictor = policy.pc_bypass.clone().map(PcPredictor::new);
        }
        self.policy = policy;
    }

    /// Victim selection honouring the policy's way partition, if any.
    fn find_victim(&self, line: LineAddr) -> Victim {
        match self.policy.partition {
            Some(p) => self.tags.find_victim_in(line, p.first, p.count),
            None => self.tags.find_victim(line),
        }
    }

    /// The PC predictor, if the policy enables one.
    #[must_use]
    pub fn predictor(&self) -> Option<&PcPredictor> {
        self.predictor.as_ref()
    }

    /// Whether fills are outstanding, replays are parked, or a flush is in
    /// progress.
    #[must_use]
    pub fn busy(&self) -> bool {
        !self.mshr.is_empty() || !self.pending_flush.is_empty() || !self.replay.is_empty()
    }

    /// The earliest cycle at or after `now` at which this cache might act
    /// on its own, or `None` if it only reacts to queue traffic.
    ///
    /// An in-progress flush retries every cycle, and so do parked replays
    /// unless the unit sleeps on them (see [`CacheUnit::blocked_since`]);
    /// both pin the event to `now`. Outstanding MSHR entries do *not*:
    /// their fills arrive through timed queues whose own deadlines drive
    /// the event wheel.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let retrying = !self.replay.is_empty() && self.blocked.is_none();
        if retrying || !self.pending_flush.is_empty() {
            Some(now)
        } else {
            None
        }
    }

    /// The first cycle of the blockage this unit sleeps on, or `None` if
    /// its last [`CacheUnit::service`] call consumed a request, found no
    /// ready work, or belongs to a unit that never sleeps.
    ///
    /// A sleeping unit needs no call until a fill lands on it, a new
    /// input head becomes ready, or `down`/`up` are popped: a call made
    /// anyway repeats the blocked one exactly, and the calls not made are
    /// booked by [`CacheUnit::settle`].
    #[must_use]
    pub fn blocked_since(&self) -> Option<Cycle> {
        self.blocked.map(|b| b.since)
    }

    /// Host-side cost of [`CacheUnit::service`] so far. `blocked +
    /// settled` is the number of blocked retries the per-cycle driver
    /// executes, whichever driver ran; `settled` is the part of them this
    /// unit slept through.
    #[must_use]
    pub fn service_calls(&self) -> ServiceCalls {
        self.service_calls
    }

    /// Books the blocked retries of every cycle before `now` that
    /// [`CacheUnit::service`] was not called on, so that
    /// [`CacheUnit::stats`] reads what calling it every cycle through
    /// `now - 1` would have produced. Idempotent, and a no-op for a unit
    /// that is not asleep or was serviced on the previous cycle.
    pub fn settle(&mut self, now: Cycle) {
        let Some(b) = self.blocked.as_mut() else {
            return;
        };
        let slept = now.since(b.booked).saturating_sub(1);
        if slept > 0 {
            self.stats.book_retries(&b.delta, slept);
            self.service_calls.settled += slept;
            b.booked += slept;
        }
    }

    /// Services the cache's input queue for one cycle, including the
    /// miss-replay discipline of real GPU cache pipelines: a request
    /// blocked on cache *resources* (all ways busy, MSHRs full, merge list
    /// full) is parked in a small replay buffer so younger requests can
    /// proceed, and is retried with priority on later cycles.
    ///
    /// This out-of-order replay is what turns cache-resource contention
    /// into DRAM row-locality disruption for streaming workloads (paper
    /// Section VI.C.2) — and what the allocation-bypass optimization
    /// largely eliminates, by converting would-block requests to bypasses
    /// instead of parking them.
    /// Returns whether any request was consumed this cycle (serviced from
    /// the replay buffer or the input queue, or parked for replay).
    ///
    /// A call that holds ready work and consumes none of it leaves the
    /// unit asleep ([`CacheUnit::blocked_since`]): the caller may skip the
    /// following cycles' calls, whose stalls the next call (or
    /// [`CacheUnit::settle`]) books first. A caller that calls every
    /// cycle anyway skips nothing and books nothing extra.
    pub fn service(
        &mut self,
        now: Cycle,
        input: &mut TimedQueue<MemReq>,
        down: &mut TimedQueue<MemReq>,
        up: &mut TimedQueue<MemResp>,
    ) -> bool {
        self.settle(now);
        self.service_calls.executed += 1;
        let before = self.stats.retry_counters();
        let acted = self.service_ports(now, input, down, up);
        if acted || (self.replay.is_empty() && input.ready_front(now).is_none()) {
            self.blocked = None;
            return acted;
        }
        self.service_calls.blocked += 1;
        // A blocked attempt advances a PC predictor's query count and
        // sampling, and a flush drains `down` on its own: neither is a
        // fixed point, so such a unit keeps being retried.
        if self.predictor.is_none() && self.pending_flush.is_empty() {
            let after = self.stats.retry_counters();
            self.blocked = Some(Blockage {
                since: self.blocked.map_or(now, |b| b.since),
                called: now,
                booked: now,
                delta: std::array::from_fn(|k| after[k] - before[k]),
                down_free: down.free_slots(),
                up_free: up.free_slots(),
            });
        }
        false
    }

    fn service_ports(
        &mut self,
        now: Cycle,
        input: &mut TimedQueue<MemReq>,
        down: &mut TimedQueue<MemReq>,
        up: &mut TimedQueue<MemResp>,
    ) -> bool {
        let mut acted = false;
        let mut deferred = false;
        for _ in 0..self.cfg.port_width {
            // Parked replays retry with priority, but a still-blocked
            // replay does not stop younger input requests — that
            // overtaking is the whole point of the replay buffer.
            if let Some(&req) = self.replay.front() {
                if self.access(now, req, down, up).is_ok() {
                    self.replay.pop_front();
                    acted = true;
                    continue;
                }
            }
            let Some(&req) = input.ready_front(now) else {
                return acted;
            };
            match self.access(now, req, down, up) {
                Ok(_) => {
                    input.pop_ready(now);
                    acted = true;
                }
                Err(Blocked::SetBusy | Blocked::MshrFull | Blocked::MergeFull)
                    if !deferred && self.replay.len() < REPLAY_CAPACITY =>
                {
                    // Park it; younger requests may overtake.
                    let req = input.pop_ready(now).expect("head was ready");
                    self.replay.push_back(req);
                    deferred = true;
                    acted = true;
                }
                Err(_) => return acted,
            }
        }
        acted
    }

    fn next_wb_id(&mut self) -> ReqId {
        self.wb_counter += 1;
        ReqId(self.wb_base | self.wb_counter)
    }

    fn port_take(&mut self, now: Cycle) -> bool {
        if now != self.port_cycle {
            self.port_cycle = now;
            self.port_used = 0;
        }
        if self.port_used < self.cfg.port_width {
            self.port_used += 1;
            true
        } else {
            false
        }
    }

    /// Presents a request from the upstream queue.
    ///
    /// On `Ok` the request was consumed: the caller pops it and inspects
    /// the [`Outcome`]. On `Err` the caller leaves the request queued and
    /// retries next cycle; stall causes attributable to cache resources
    /// have already been counted.
    ///
    /// # Errors
    ///
    /// Returns the [`Blocked`] reason when the request cannot be serviced
    /// this cycle.
    pub fn access(
        &mut self,
        now: Cycle,
        req: MemReq,
        down: &mut TimedQueue<MemReq>,
        up: &mut TimedQueue<MemResp>,
    ) -> Result<Outcome, Blocked> {
        // A blocked attempt releases its tag-port slot so another request
        // can be tried the same cycle (miss-replay overtaking).
        let saved = (self.port_cycle, self.port_used);
        let result = self.access_inner(now, req, down, up);
        if result.is_err() {
            self.port_cycle = saved.0;
            self.port_used = saved.1;
        }
        result
    }

    fn access_inner(
        &mut self,
        now: Cycle,
        req: MemReq,
        down: &mut TimedQueue<MemReq>,
        up: &mut TimedQueue<MemResp>,
    ) -> Result<Outcome, Blocked> {
        if !self.policy.enabled {
            // Disabled level (Uncached): pure bypass with opportunistic
            // coalescing; backpressure here is bandwidth, not a cache
            // stall, so nothing is counted.
            return if req.is_store {
                self.forward(now, req, down).map(|()| {
                    self.stats.accesses.inc();
                    self.stats.store_bypasses.inc();
                    Outcome::StoreForwarded
                })
            } else {
                self.bypass_load(now, req, down, false)
            };
        }

        if req.is_store {
            self.access_store(now, req, down)
        } else {
            self.access_load(now, req, down, up)
        }
    }

    fn forward(
        &mut self,
        now: Cycle,
        req: MemReq,
        down: &mut TimedQueue<MemReq>,
    ) -> Result<(), Blocked> {
        if !down.can_push() {
            return Err(Blocked::OutQueueFull);
        }
        down.push(now, req).expect("checked can_push");
        Ok(())
    }

    /// Bypass path for loads: merge if the line is pending, track in a free
    /// MSHR entry otherwise, and fall back to untracked forwarding when the
    /// table is full. Never counts a stall unless `count_stalls`.
    fn bypass_load(
        &mut self,
        now: Cycle,
        req: MemReq,
        down: &mut TimedQueue<MemReq>,
        count_stalls: bool,
    ) -> Result<Outcome, Blocked> {
        if self.mshr.get(req.line).is_some() {
            return match self.mshr.merge(req) {
                Ok(()) => {
                    self.stats.accesses.inc();
                    self.stats.load_merges.inc();
                    Ok(Outcome::Merged)
                }
                // Merge list full (or raced removal): forward untracked.
                Err((r, MshrReject::MergeFull)) | Err((r, MshrReject::Full)) => {
                    self.finish_bypass_forward(now, r, down, count_stalls)
                }
            };
        }
        if self.mshr.has_free_entry() {
            if !down.can_push() {
                if count_stalls {
                    self.stats.stall_out_queue.inc();
                }
                return Err(Blocked::OutQueueFull);
            }
            self.mshr.allocate(req, false, None);
            down.push(now, req).expect("checked can_push");
            self.stats.accesses.inc();
            self.stats.load_bypasses.inc();
            return Ok(Outcome::BypassForwarded);
        }
        self.finish_bypass_forward(now, req, down, count_stalls)
    }

    fn finish_bypass_forward(
        &mut self,
        now: Cycle,
        req: MemReq,
        down: &mut TimedQueue<MemReq>,
        count_stalls: bool,
    ) -> Result<Outcome, Blocked> {
        match self.forward(now, req, down) {
            Ok(()) => {
                self.stats.accesses.inc();
                self.stats.load_bypasses.inc();
                Ok(Outcome::BypassForwarded)
            }
            Err(b) => {
                if count_stalls {
                    self.stats.stall_out_queue.inc();
                }
                Err(b)
            }
        }
    }

    fn access_load(
        &mut self,
        now: Cycle,
        req: MemReq,
        down: &mut TimedQueue<MemReq>,
        up: &mut TimedQueue<MemResp>,
    ) -> Result<Outcome, Blocked> {
        if !self.policy.cache_loads || req.kind == miopt_engine::AccessKind::Bypass {
            return self.bypass_load(now, req, down, false);
        }

        if !self.port_take(now) {
            self.stats.stall_port.inc();
            return Err(Blocked::PortBusy);
        }

        // PC-based bypass prediction (loads).
        if let Some(p) = self.predictor.as_mut() {
            if !p.should_cache(req.pc) {
                self.stats.predictor_bypasses.inc();
                return self.bypass_load(now, req, down, true);
            }
        }

        if let Some((set, way)) = self.tags.probe(req.line) {
            match self.tags.line(set, way).state {
                LineState::Valid => {
                    if !up.can_push() {
                        self.stats.stall_out_queue.inc();
                        return Err(Blocked::RespQueueFull);
                    }
                    let pc = self.tags.line(set, way).pc;
                    self.tags.touch(set, way);
                    if let Some(p) = self.predictor.as_mut() {
                        p.train_reuse(pc);
                    }
                    if req.wants_response() {
                        up.push(now, MemResp::for_req(&req))
                            .expect("checked can_push");
                    }
                    self.stats.accesses.inc();
                    self.stats.load_hits.inc();
                    return Ok(Outcome::Hit);
                }
                LineState::Busy => {
                    return match self.mshr.merge(req) {
                        Ok(()) => {
                            self.stats.accesses.inc();
                            self.stats.load_merges.inc();
                            Ok(Outcome::Merged)
                        }
                        Err((_, _)) => {
                            self.stats.stall_merge.inc();
                            Err(Blocked::MergeFull)
                        }
                    };
                }
                LineState::Invalid => unreachable!("probe only returns live lines"),
            }
        }

        // Miss. A bypass entry for the line may still exist (an earlier
        // bypass to the same line): merge into it.
        if self.mshr.get(req.line).is_some() {
            return match self.mshr.merge(req) {
                Ok(()) => {
                    self.stats.accesses.inc();
                    self.stats.load_merges.inc();
                    Ok(Outcome::Merged)
                }
                Err(_) => {
                    self.stats.stall_merge.inc();
                    Err(Blocked::MergeFull)
                }
            };
        }

        if !self.mshr.has_free_entry() {
            self.stats.stall_mshr.inc();
            return Err(Blocked::MshrFull);
        }

        let victim = self.find_victim(req.line);
        if victim == Victim::AllBusy {
            if self.policy.allocation_bypass {
                self.stats.alloc_bypasses.inc();
                return self.bypass_load(now, req, down, true);
            }
            self.stats.stall_set_busy.inc();
            return Err(Blocked::SetBusy);
        }

        let needed_down = 1 + usize::from(matches!(victim, Victim::Dirty(_)));
        if down.free_slots() < needed_down {
            self.stats.stall_out_queue.inc();
            return Err(Blocked::OutQueueFull);
        }

        // Reserve one slot for the miss forward: the rinse may use the rest.
        let way = self.evict(now, victim, req.line, down, 1);
        self.tags
            .install(req.line, way, LineState::Busy, req.pc, false);
        let set = self.tags.set_index(req.line);
        self.mshr.allocate(req, true, Some((set, way)));
        down.push(now, req).expect("checked free_slots");
        self.stats.accesses.inc();
        self.stats.load_misses.inc();
        Ok(Outcome::MissForwarded)
    }

    fn access_store(
        &mut self,
        now: Cycle,
        req: MemReq,
        down: &mut TimedQueue<MemReq>,
    ) -> Result<Outcome, Blocked> {
        if !self.port_take(now) {
            self.stats.stall_port.inc();
            return Err(Blocked::PortBusy);
        }

        let hit = self.tags.probe(req.line);

        if !self.policy.cache_stores {
            // Write-through / no-allocate: invalidate any stale copy and
            // forward. Backpressure here is bandwidth, not a cache stall.
            self.forward(now, req, down)?;
            if let Some((set, way)) = hit {
                if self.tags.line(set, way).state == LineState::Valid {
                    debug_assert!(
                        !self.tags.line(set, way).dirty,
                        "dirty line at write-through level"
                    );
                    self.tags.invalidate(set, way);
                }
            }
            self.stats.accesses.inc();
            self.stats.store_bypasses.inc();
            return Ok(Outcome::StoreForwarded);
        }

        // Write-allocate level (the L2 under CacheRW).
        if let Some((set, way)) = hit {
            match self.tags.line(set, way).state {
                LineState::Valid => {
                    let pc = self.tags.line(set, way).pc;
                    self.tags.touch(set, way);
                    let was_dirty = self.tags.line(set, way).dirty;
                    self.tags.line_mut(set, way).dirty = true;
                    if let Some(p) = self.predictor.as_mut() {
                        p.train_reuse(pc);
                    }
                    if !was_dirty {
                        self.note_dirty(now, req.line, down);
                    }
                    self.stats.accesses.inc();
                    self.stats.store_hits.inc();
                    return Ok(Outcome::StoreAbsorbed);
                }
                LineState::Busy => {
                    // Store to a line with a pending load fill: write
                    // through this one (documented simplification; the data
                    // race is irrelevant without functional data).
                    self.forward(now, req, down)?;
                    self.stats.accesses.inc();
                    self.stats.store_bypasses.inc();
                    return Ok(Outcome::StoreForwarded);
                }
                LineState::Invalid => unreachable!("probe only returns live lines"),
            }
        }

        // Store miss: PC prediction applies here (paper applies PCby to
        // loads *and* stores at the L2).
        if let Some(p) = self.predictor.as_mut() {
            if !p.should_cache(req.pc) {
                self.stats.predictor_bypasses.inc();
                self.forward(now, req, down)?;
                self.stats.accesses.inc();
                self.stats.store_bypasses.inc();
                return Ok(Outcome::StoreForwarded);
            }
        }

        let victim = self.find_victim(req.line);
        if victim == Victim::AllBusy {
            if self.policy.allocation_bypass {
                self.stats.alloc_bypasses.inc();
                self.forward(now, req, down)?;
                self.stats.accesses.inc();
                self.stats.store_bypasses.inc();
                return Ok(Outcome::StoreForwarded);
            }
            self.stats.stall_set_busy.inc();
            return Err(Blocked::SetBusy);
        }

        let needed_down = usize::from(matches!(victim, Victim::Dirty(_)));
        if down.free_slots() < needed_down {
            self.stats.stall_out_queue.inc();
            return Err(Blocked::OutQueueFull);
        }

        let way = self.evict(now, victim, req.line, down, 0);
        self.tags
            .install(req.line, way, LineState::Valid, req.pc, true);
        self.note_dirty(now, req.line, down);
        self.stats.accesses.inc();
        self.stats.store_allocs.inc();
        Ok(Outcome::StoreAbsorbed)
    }

    /// Performs the eviction chosen by `find_victim`, emitting writebacks
    /// (and rinse writebacks) as needed, and returns the freed way.
    /// `reserve` downstream slots are left untouched by rinse writebacks
    /// (the caller still needs them, e.g. for the miss forward).
    fn evict(
        &mut self,
        now: Cycle,
        victim: Victim,
        incoming: LineAddr,
        down: &mut TimedQueue<MemReq>,
        reserve: usize,
    ) -> usize {
        match victim {
            Victim::Free(w) => w,
            Victim::Clean(w) => {
                let (_, referenced, pc) = self.tags.victim_info(incoming, w);
                self.train_eviction(referenced, pc);
                self.stats.evictions_clean.inc();
                w
            }
            Victim::Dirty(w) => {
                let (line, referenced, pc) = self.tags.victim_info(incoming, w);
                self.train_eviction(referenced, pc);
                let id = self.next_wb_id();
                down.push(now, MemReq::writeback(id, line, now))
                    .expect("caller reserved a slot");
                self.stats.writebacks.inc();
                if let Some(dbi) = self.dbi.as_mut() {
                    dbi.remove(line);
                }
                self.rinse_row_of(now, line, down, reserve);
                w
            }
            Victim::AllBusy => unreachable!("caller handles AllBusy"),
        }
    }

    /// Predictor training on eviction: a line never referenced after
    /// insertion is negative evidence for its inserting PC.
    fn train_eviction(&mut self, referenced: bool, pc: miopt_engine::Pc) {
        if let Some(p) = self.predictor.as_mut() {
            if !referenced {
                p.train_no_reuse(pc);
            }
        }
    }

    /// Rinse: write back every other dirty block of the evicted block's
    /// DRAM row (as many as fit downstream), keeping the lines resident
    /// but clean.
    fn rinse_row_of(
        &mut self,
        now: Cycle,
        line: LineAddr,
        down: &mut TimedQueue<MemReq>,
        reserve: usize,
    ) {
        if self.dbi.is_none() {
            return;
        }
        let mut blocks = std::mem::take(&mut self.row_scratch);
        self.dbi
            .as_mut()
            .expect("checked above")
            .take_row_of_into(line, &mut blocks);
        for &b in &blocks {
            if b == line {
                continue;
            }
            if down.free_slots() <= reserve {
                // No room: the block stays dirty; re-track it. Its row was
                // just taken out of the index, so the index has room for
                // it again and evicts nothing.
                if let Some(dbi) = self.dbi.as_mut() {
                    let evicted = dbi.insert(b);
                    debug_assert!(evicted.is_none(), "re-tracking {b} evicted a row");
                }
                continue;
            }
            if let Some((set, way)) = self.tags.probe(b) {
                if self.tags.line(set, way).state == LineState::Valid
                    && self.tags.line(set, way).dirty
                {
                    self.tags.line_mut(set, way).dirty = false;
                    let id = self.next_wb_id();
                    down.push(now, MemReq::writeback(id, b, now))
                        .expect("checked can_push");
                    self.stats.rinse_writebacks.inc();
                }
            }
        }
        blocks.clear();
        self.row_scratch = blocks;
    }

    /// Records a line turning dirty in the DBI, handling capacity
    /// overflow by rinsing the evicted row (best-effort).
    fn note_dirty(&mut self, now: Cycle, line: LineAddr, down: &mut TimedQueue<MemReq>) {
        if self.dbi.is_none() {
            return;
        }
        let mut evicted_row = std::mem::take(&mut self.row_scratch);
        let evicted = self
            .dbi
            .as_mut()
            .expect("checked above")
            .insert_into(line, &mut evicted_row);
        if evicted {
            for &b in &evicted_row {
                if !down.can_push() {
                    continue;
                }
                if let Some((set, way)) = self.tags.probe(b) {
                    if self.tags.line(set, way).state == LineState::Valid
                        && self.tags.line(set, way).dirty
                    {
                        self.tags.line_mut(set, way).dirty = false;
                        let id = self.next_wb_id();
                        down.push(now, MemReq::writeback(id, b, now))
                            .expect("checked can_push");
                        self.stats.rinse_writebacks.inc();
                    }
                }
            }
        }
        evicted_row.clear();
        self.row_scratch = evicted_row;
    }

    /// Delivers a response arriving from below.
    ///
    /// If the response matches an outstanding MSHR entry, the entry's line
    /// (if allocated) turns valid and every waiting load gets a response in
    /// `up`. Otherwise the response passes through untouched.
    ///
    /// # Errors
    ///
    /// Returns the response back when `up` lacks room for all waiters; the
    /// caller retries next cycle.
    pub fn fill(
        &mut self,
        now: Cycle,
        resp: MemResp,
        up: &mut TimedQueue<MemResp>,
    ) -> Result<(), MemResp> {
        let needed = match self.mshr.get(resp.line) {
            Some(e) if e.primary == resp.id => self
                .mshr
                .waiters_of(e)
                .filter(|w| w.wants_response())
                .count(),
            _ => {
                // Pass-through (untracked bypass).
                return if up.can_push() {
                    up.push(now, resp).expect("checked can_push");
                    Ok(())
                } else {
                    Err(resp)
                };
            }
        };
        if up.free_slots() < needed {
            return Err(resp);
        }
        let mut entry = self
            .mshr
            .complete(resp.line, resp.id)
            .expect("checked above");
        if entry.allocates {
            let (set, way) = entry.reserved.expect("allocating entries reserve a way");
            debug_assert_eq!(self.tags.line(set, way).state, LineState::Busy);
            debug_assert_eq!(self.tags.line(set, way).line, resp.line);
            self.tags.line_mut(set, way).state = LineState::Valid;
        }
        while let Some(w) = self.mshr.pop_waiter(&mut entry) {
            if w.wants_response() {
                up.push(now, MemResp::for_req(&w))
                    .expect("checked free_slots");
            }
        }
        self.stats.fills.inc();
        Ok(())
    }

    /// Begins a bulk writeback of all dirty data (the release flush at a
    /// system-scope synchronization point, paper Section III).
    pub fn start_flush(&mut self) {
        debug_assert!(self.pending_flush.is_empty(), "flush already in progress");
        // Room for every slot on the first flush, so no later one grows it.
        self.pending_flush.reserve(self.cfg.sets * self.cfg.ways);
        self.tags.dirty_lines_into(&mut self.pending_flush);
    }

    /// Emits up to `flush_width` flush writebacks into `down`; call once
    /// per cycle until [`CacheUnit::flush_done`].
    pub fn flush_tick(&mut self, now: Cycle, down: &mut TimedQueue<MemReq>) {
        for _ in 0..self.cfg.flush_width {
            if !down.can_push() {
                return;
            }
            let Some(line) = self.pending_flush.pop() else {
                return;
            };
            if let Some((set, way)) = self.tags.probe(line) {
                if self.tags.line(set, way).dirty {
                    self.tags.line_mut(set, way).dirty = false;
                    if let Some(dbi) = self.dbi.as_mut() {
                        dbi.remove(line);
                    }
                    let id = self.next_wb_id();
                    down.push(now, MemReq::writeback(id, line, now))
                        .expect("checked can_push");
                    self.stats.flush_writebacks.inc();
                }
            }
        }
    }

    /// Whether the flush started by [`CacheUnit::start_flush`] has emitted
    /// every writeback.
    #[must_use]
    pub fn flush_done(&self) -> bool {
        self.pending_flush.is_empty()
    }

    /// Flash self-invalidation of all valid data (the acquire at a kernel
    /// boundary, paper Section III). Unreferenced lines train the PC
    /// predictor negatively.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if fills are outstanding or dirty data
    /// remains (drain and flush first).
    pub fn self_invalidate(&mut self) {
        debug_assert!(
            self.mshr.is_empty(),
            "self-invalidate with outstanding fills"
        );
        let mut invalidated = 0u64;
        let predictor = &mut self.predictor;
        self.tags.flash_invalidate(|l| {
            invalidated += 1;
            if let Some(p) = predictor.as_mut().filter(|_| !l.referenced) {
                p.train_no_reuse(l.pc);
            }
        });
        if let Some(dbi) = self.dbi.as_mut() {
            dbi.clear();
        }
        self.stats.self_invalidations.add(invalidated);
    }

    /// Live valid lines (occupancy, for tests and reporting).
    #[must_use]
    pub fn live_lines(&self) -> usize {
        self.tags.live_count()
    }

    /// Lines awaiting fills.
    #[must_use]
    pub fn busy_lines(&self) -> usize {
        self.tags.busy_count()
    }

    /// One human-readable description per outstanding MSHR entry, sorted by
    /// line address (stall diagnostics).
    #[must_use]
    pub fn mshr_snapshot(&self) -> Vec<String> {
        let mut entries: Vec<_> = self.mshr.iter().collect();
        entries.sort_by_key(|(line, _)| line.0);
        entries
            .into_iter()
            .map(|(line, e)| {
                format!(
                    "{} primary {:?} waiters {} allocates {}",
                    line,
                    e.primary,
                    e.waiters.len(),
                    e.allocates
                )
            })
            .collect()
    }

    /// The `blocked_unit_wake` invariant, which needs the queues the unit
    /// does not own and so is not part of its [`Sentinel`] impl. Checked
    /// between cycles, `now` being the next cycle to run: a sleeping unit
    /// must have no predictor and no flush, must still hold the work it
    /// blocked on, and — unless `wake_pending` says a `service` call is
    /// already due by `now` — must see what the blocked call saw: the
    /// same free slots in `down` and `up`, and no input head that turned
    /// ready since. A lost credit or head wake is thus named at the next
    /// check instead of surfacing as a watchdog wedge.
    ///
    /// A unit serviced on the cycle that just ended is exempt from the
    /// comparison: whatever changed after its call is due at `now`, which
    /// a driver that calls every cycle serves without scheduling it.
    ///
    /// Returns the violation's detail, for the caller to name the unit.
    #[must_use]
    pub fn blocked_wake_violation(
        &self,
        now: Cycle,
        input: &TimedQueue<MemReq>,
        down: &TimedQueue<MemReq>,
        up: &TimedQueue<MemResp>,
        wake_pending: bool,
    ) -> Option<String> {
        let b = self.blocked?;
        let head_ready = input.next_ready();
        let slept = now.since(b.called) > 1;
        if self.predictor.is_some() || !self.pending_flush.is_empty() {
            return Some("asleep with a PC predictor or a flush in progress".to_string());
        }
        if self.replay.is_empty() && head_ready.is_none_or(|r| r > b.called) {
            return Some(format!(
                "asleep since {} with no parked replay and no ready input head",
                b.since
            ));
        }
        if !slept || wake_pending {
            return None;
        }
        let asleep = format!(
            "asleep since {} (last serviced {}) with no service wake pending",
            b.since, b.called
        );
        let free = (down.free_slots(), up.free_slots());
        if free != (b.down_free, b.up_free) {
            return Some(format!(
                "{asleep}, but free slots down/up went {}/{} -> {}/{}",
                b.down_free, b.up_free, free.0, free.1
            ));
        }
        let r = head_ready.filter(|&r| r > b.called && r <= now)?;
        Some(format!("{asleep}, but an input head turned ready at {r}"))
    }

    /// Fault-injection hook: leaks a phantom MSHR entry for `line` whose
    /// primary id no fill will ever match.
    ///
    /// With `allocating = true` the entry claims to allocate but reserves
    /// no way, which the sentinel's `mshr_reservation` invariant flags
    /// immediately. With `allocating = false` the entry is structurally
    /// plausible but permanently outstanding, so it wedges the end-of-kernel
    /// drain and exercises the forward-progress watchdog instead.
    ///
    /// Exists solely to validate the sentinel; never called by the
    /// simulator itself.
    pub fn inject_mshr_leak(&mut self, line: LineAddr, allocating: bool) {
        let req = MemReq {
            id: ReqId(u64::MAX),
            line,
            is_store: false,
            kind: miopt_engine::AccessKind::Cached,
            pc: miopt_engine::Pc(0),
            origin: miopt_engine::Origin::Internal,
            issue_cycle: Cycle::ZERO,
        };
        self.mshr.inject_phantom(req, allocating);
    }
}

impl Sentinel for CacheUnit {
    fn check_invariants(&self, component: &str, out: &mut Vec<InvariantViolation>) {
        // MSHR occupancy and per-entry structure.
        if self.mshr.len() > self.mshr.capacity() {
            out.push(InvariantViolation {
                component: component.to_string(),
                invariant: "mshr_occupancy",
                detail: format!(
                    "{} outstanding entries > capacity {}",
                    self.mshr.len(),
                    self.mshr.capacity()
                ),
            });
        }
        let mut entries: Vec<_> = self.mshr.iter().collect();
        entries.sort_by_key(|(line, _)| line.0);
        for (line, e) in entries {
            if e.waiters.len() > self.mshr.merge_cap() {
                out.push(InvariantViolation {
                    component: component.to_string(),
                    invariant: "mshr_merge_occupancy",
                    detail: format!(
                        "line {line}: {} waiters > merge cap {}",
                        e.waiters.len(),
                        self.mshr.merge_cap()
                    ),
                });
            }
            if self.mshr.waiters_of(e).next().map(|w| w.id) != Some(e.primary)
                || self.mshr.waiters_of(e).any(|w| w.line != *line)
            {
                out.push(InvariantViolation {
                    component: component.to_string(),
                    invariant: "mshr_primary",
                    detail: format!(
                        "line {line}: waiter list does not start with primary {:?} \
                         or mixes lines",
                        e.primary
                    ),
                });
            }
            if e.allocates {
                match e.reserved {
                    None => out.push(InvariantViolation {
                        component: component.to_string(),
                        invariant: "mshr_reservation",
                        detail: format!("line {line}: allocating entry reserves no way"),
                    }),
                    Some((set, way)) => {
                        let l = self.tags.line(set, way);
                        if l.state != LineState::Busy || l.line != *line {
                            out.push(InvariantViolation {
                                component: component.to_string(),
                                invariant: "mshr_reservation",
                                detail: format!(
                                    "line {line}: reserved way ({set},{way}) holds \
                                     {:?} {}",
                                    l.state, l.line
                                ),
                            });
                        }
                    }
                }
            }
        }

        // Every busy tag line must be owned by exactly the allocating MSHR
        // entry that reserved it — a busy line with no entry is a lost fill.
        for (set, way, l) in self.tags.iter_live() {
            if l.state != LineState::Busy {
                continue;
            }
            let owned = self
                .mshr
                .get(l.line)
                .is_some_and(|e| e.allocates && e.reserved == Some((set, way)));
            if !owned {
                out.push(InvariantViolation {
                    component: component.to_string(),
                    invariant: "busy_line_tracking",
                    detail: format!(
                        "busy line {} at ({set},{way}) has no owning MSHR entry",
                        l.line
                    ),
                });
            }
        }

        // DBI: internal structure, plus every tracked block must really be
        // a resident dirty line (tracking is conservative by design — dirty
        // lines may be untracked after capacity overflow, but never the
        // reverse).
        if let Some(dbi) = self.dbi.as_ref() {
            dbi.check_invariants(&format!("{component}.dbi"), out);
            let mut blocks: Vec<_> = dbi.iter_blocks().collect();
            blocks.sort();
            for b in blocks {
                let resident_dirty = self.tags.probe(b).is_some_and(|(s, w)| {
                    let l = self.tags.line(s, w);
                    l.state == LineState::Valid && l.dirty
                });
                if !resident_dirty {
                    out.push(InvariantViolation {
                        component: format!("{component}.dbi"),
                        invariant: "dbi_dirty_tracking",
                        detail: format!("tracked block {b} is not a resident dirty line"),
                    });
                }
            }
        }

        if self.replay.len() > REPLAY_CAPACITY {
            out.push(InvariantViolation {
                component: component.to_string(),
                invariant: "replay_occupancy",
                detail: format!(
                    "{} parked replays > capacity {REPLAY_CAPACITY}",
                    self.replay.len()
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RowMap, WayRange};
    use crate::predictor::PredictorConfig;
    use miopt_engine::{AccessKind, Origin, Pc};

    fn load(id: u64, line: u64, pc: u32) -> MemReq {
        MemReq {
            id: ReqId(id),
            line: LineAddr(line),
            is_store: false,
            kind: AccessKind::Cached,
            pc: Pc(pc),
            origin: Origin::Wavefront { cu: 0, slot: 0 },
            issue_cycle: Cycle(0),
        }
    }

    fn store(id: u64, line: u64, pc: u32) -> MemReq {
        MemReq {
            is_store: true,
            ..load(id, line, pc)
        }
    }

    fn queues() -> (TimedQueue<MemReq>, TimedQueue<MemResp>) {
        (TimedQueue::new(64, 0), TimedQueue::new(64, 0))
    }

    fn cache(policy: LevelPolicy) -> CacheUnit {
        CacheUnit::new(CacheConfig::tiny_test(), policy, 0)
    }

    /// First `n` lines mapping to one set of the 4-set tiny cache.
    fn colliding(base: u64, n: usize) -> Vec<u64> {
        let target = crate::tags::set_index_for(LineAddr(base), 4, 31, 0);
        (base..)
            .filter(|l| crate::tags::set_index_for(LineAddr(*l), 4, 31, 0) == target)
            .take(n)
            .collect()
    }

    /// Drives the miss for `line` to completion at `at`: access + fill.
    fn warm_at(
        c: &mut CacheUnit,
        at: Cycle,
        line: u64,
        down: &mut TimedQueue<MemReq>,
        up: &mut TimedQueue<MemResp>,
    ) {
        let r = load(1000 + line, line, 1);
        match c.access(at, r, down, up).unwrap() {
            Outcome::MissForwarded => {
                let fwd = down.pop_ready(at).unwrap();
                c.fill(at, MemResp::for_req(&fwd), up).unwrap();
                up.pop_ready(at).unwrap();
            }
            o => panic!("expected miss, got {o:?}"),
        }
    }

    fn warm(
        c: &mut CacheUnit,
        line: u64,
        down: &mut TimedQueue<MemReq>,
        up: &mut TimedQueue<MemResp>,
    ) {
        warm_at(c, Cycle(0), line, down, up);
    }

    #[test]
    fn cold_miss_then_fill_then_hit() {
        let mut c = cache(LevelPolicy::cache_loads_only());
        let (mut down, mut up) = queues();
        let r = load(1, 8, 7);
        assert_eq!(
            c.access(Cycle(0), r, &mut down, &mut up).unwrap(),
            Outcome::MissForwarded
        );
        assert_eq!(c.busy_lines(), 1);
        let fwd = down.pop_ready(Cycle(0)).unwrap();
        assert_eq!(fwd.id, ReqId(1));
        c.fill(Cycle(5), MemResp::for_req(&fwd), &mut up).unwrap();
        let resp = up.pop_ready(Cycle(5)).unwrap();
        assert_eq!(resp.id, ReqId(1));
        assert_eq!(c.busy_lines(), 0);
        assert_eq!(c.live_lines(), 1);
        // Second access hits.
        assert_eq!(
            c.access(Cycle(6), load(2, 8, 7), &mut down, &mut up)
                .unwrap(),
            Outcome::Hit
        );
        assert_eq!(up.pop_ready(Cycle(6)).unwrap().id, ReqId(2));
        assert_eq!(c.stats().load_hits.get(), 1);
        assert_eq!(c.stats().load_misses.get(), 1);
    }

    #[test]
    fn partition_confines_allocation_but_not_hits() {
        let mut c = cache(LevelPolicy::cache_loads_only());
        let (mut down, mut up) = queues();
        let lines = colliding(8, 3);
        // Unpartitioned warm-up installs lines[0] in way 0.
        warm(&mut c, lines[0], &mut down, &mut up);
        // Tenant switch: confine allocation to way 1 (of 2).
        let mut p = LevelPolicy::cache_loads_only();
        p.partition = Some(WayRange::new(1, 1));
        c.set_policy(p);
        // Probes search every way, so the way-0 resident still hits.
        assert_eq!(
            c.access(Cycle(1), load(1, lines[0], 7), &mut down, &mut up)
                .unwrap(),
            Outcome::Hit
        );
        up.pop_ready(Cycle(1)).unwrap();
        // Two colliding fills now fight over the single partition way:
        // lines[2] evicts lines[1], never the way-0 resident.
        warm_at(&mut c, Cycle(2), lines[1], &mut down, &mut up);
        warm_at(&mut c, Cycle(3), lines[2], &mut down, &mut up);
        assert_eq!(
            c.access(Cycle(4), load(2, lines[0], 7), &mut down, &mut up)
                .unwrap(),
            Outcome::Hit
        );
        up.pop_ready(Cycle(4)).unwrap();
        assert_eq!(
            c.access(Cycle(5), load(3, lines[2], 7), &mut down, &mut up)
                .unwrap(),
            Outcome::Hit
        );
        up.pop_ready(Cycle(5)).unwrap();
        assert_eq!(
            c.access(Cycle(6), load(4, lines[1], 7), &mut down, &mut up)
                .unwrap(),
            Outcome::MissForwarded
        );
    }

    #[test]
    #[should_panic(expected = "set_policy while cache busy")]
    fn set_policy_on_busy_cache_panics() {
        let mut c = cache(LevelPolicy::cache_loads_only());
        let (mut down, mut up) = queues();
        // Outstanding miss fill keeps the cache busy.
        c.access(Cycle(0), load(1, 8, 7), &mut down, &mut up)
            .unwrap();
        c.set_policy(LevelPolicy::cache_loads_only());
    }

    #[test]
    #[should_panic(expected = "invalid way partition")]
    fn oversized_partition_is_rejected() {
        let mut p = LevelPolicy::cache_loads_only();
        p.partition = Some(WayRange::new(0, 3)); // tiny cache: 2 ways
        let _ = cache(p);
    }

    #[test]
    fn set_policy_keeps_unchanged_predictor_and_rebuilds_changed_dbi() {
        let mut p = LevelPolicy::cache_loads_and_stores();
        p.pc_bypass = Some(PredictorConfig::paper());
        let mut c = cache(p.clone());
        assert!(c.predictor().is_some());
        assert!(c.dbi.is_none());
        // Partition-only change: predictor instance survives.
        let mut q = p.clone();
        q.partition = Some(WayRange::new(0, 1));
        c.set_policy(q);
        assert!(c.predictor().is_some());
        // Turning rinse on builds a DBI; dropping pc_bypass drops the
        // predictor.
        let mut r = LevelPolicy::cache_loads_and_stores();
        r.rinse = true;
        r.row_map = Some(RowMap::new(0, 2));
        c.set_policy(r);
        assert!(c.predictor().is_none());
        assert!(c.dbi.is_some());
    }

    #[test]
    fn pending_miss_merges_and_fill_answers_all() {
        let mut c = cache(LevelPolicy::cache_loads_only());
        let (mut down, mut up) = queues();
        assert_eq!(
            c.access(Cycle(0), load(1, 8, 7), &mut down, &mut up)
                .unwrap(),
            Outcome::MissForwarded
        );
        assert_eq!(
            c.access(Cycle(1), load(2, 8, 7), &mut down, &mut up)
                .unwrap(),
            Outcome::Merged
        );
        assert_eq!(down.len(), 1, "merged load must not be forwarded");
        let fwd = down.pop_ready(Cycle(1)).unwrap();
        c.fill(Cycle(5), MemResp::for_req(&fwd), &mut up).unwrap();
        let mut ids = vec![
            up.pop_ready(Cycle(5)).unwrap().id.0,
            up.pop_ready(Cycle(5)).unwrap().id.0,
        ];
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(c.stats().load_merges.get(), 1);
    }

    #[test]
    fn disabled_cache_bypasses_and_never_stalls() {
        let mut c = cache(LevelPolicy::disabled());
        let (mut down, mut up) = queues();
        assert_eq!(
            c.access(Cycle(0), load(1, 8, 7), &mut down, &mut up)
                .unwrap(),
            Outcome::BypassForwarded
        );
        // Coalescing still happens on the bypass path.
        assert_eq!(
            c.access(Cycle(0), load(2, 8, 7), &mut down, &mut up)
                .unwrap(),
            Outcome::Merged
        );
        assert_eq!(
            c.access(Cycle(0), store(3, 16, 7), &mut down, &mut up)
                .unwrap(),
            Outcome::StoreForwarded
        );
        assert_eq!(c.live_lines(), 0, "disabled cache must not fill");
        assert_eq!(c.stats().stall_cycles(), 0);
        // Fill passes responses through.
        let fwd = down.pop_ready(Cycle(0)).unwrap();
        c.fill(Cycle(5), MemResp::for_req(&fwd), &mut up).unwrap();
        assert_eq!(c.live_lines(), 0);
        assert_eq!(up.len(), 2); // both coalesced loads answered
    }

    #[test]
    fn all_ways_busy_blocks_without_ab() {
        let mut c = cache(LevelPolicy::cache_loads_only());
        let (mut down, mut up) = queues();
        // tiny_test: 4 sets, 2 ways; three set-colliding lines.
        let l = colliding(4, 3);
        assert!(c
            .access(Cycle(0), load(1, l[0], 7), &mut down, &mut up)
            .is_ok());
        assert!(c
            .access(Cycle(1), load(2, l[1], 7), &mut down, &mut up)
            .is_ok());
        let err = c
            .access(Cycle(2), load(3, l[2], 7), &mut down, &mut up)
            .unwrap_err();
        assert_eq!(err, Blocked::SetBusy);
        assert_eq!(c.stats().stall_set_busy.get(), 1);
    }

    #[test]
    fn allocation_bypass_converts_instead_of_blocking() {
        let mut p = LevelPolicy::cache_loads_only();
        p.allocation_bypass = true;
        let mut c = cache(p);
        let (mut down, mut up) = queues();
        let l = colliding(4, 3);
        assert!(c
            .access(Cycle(0), load(1, l[0], 7), &mut down, &mut up)
            .is_ok());
        assert!(c
            .access(Cycle(1), load(2, l[1], 7), &mut down, &mut up)
            .is_ok());
        assert_eq!(
            c.access(Cycle(2), load(3, l[2], 7), &mut down, &mut up)
                .unwrap(),
            Outcome::BypassForwarded
        );
        assert_eq!(c.stats().alloc_bypasses.get(), 1);
        assert_eq!(c.stats().stall_set_busy.get(), 0);
        assert_eq!(down.len(), 3);
    }

    #[test]
    fn write_through_store_invalidates_stale_copy() {
        let mut c = cache(LevelPolicy::cache_loads_only());
        let (mut down, mut up) = queues();
        warm(&mut c, 8, &mut down, &mut up);
        assert_eq!(c.live_lines(), 1);
        assert_eq!(
            c.access(Cycle(10), store(5, 8, 9), &mut down, &mut up)
                .unwrap(),
            Outcome::StoreForwarded
        );
        assert_eq!(c.live_lines(), 0, "stale copy must be invalidated");
        assert_eq!(down.len(), 1); // the store went downstream
    }

    #[test]
    fn store_allocates_dirty_at_rw_level_and_flushes() {
        let mut c = cache(LevelPolicy::cache_loads_and_stores());
        let (mut down, mut up) = queues();
        assert_eq!(
            c.access(Cycle(0), store(1, 8, 9), &mut down, &mut up)
                .unwrap(),
            Outcome::StoreAbsorbed
        );
        assert_eq!(down.len(), 0, "absorbed store generates no traffic");
        // Second store to the same line coalesces (write hit).
        assert_eq!(
            c.access(Cycle(1), store(2, 8, 9), &mut down, &mut up)
                .unwrap(),
            Outcome::StoreAbsorbed
        );
        assert_eq!(c.stats().store_hits.get(), 1);
        // Flush writes the line back exactly once.
        c.start_flush();
        while !c.flush_done() {
            c.flush_tick(Cycle(10), &mut down);
        }
        assert_eq!(c.stats().flush_writebacks.get(), 1);
        let wb = down.pop_ready(Cycle(10)).unwrap();
        assert!(wb.is_store);
        assert_eq!(wb.line, LineAddr(8));
        // Now clean: self-invalidation is legal.
        c.self_invalidate();
        assert_eq!(c.live_lines(), 0);
    }

    #[test]
    fn dirty_eviction_emits_writeback() {
        let mut c = cache(LevelPolicy::cache_loads_and_stores());
        let (mut down, mut up) = queues();
        // Fill one set with dirty stores, then force a third allocation.
        let l = colliding(4, 3);
        c.access(Cycle(0), store(1, l[0], 9), &mut down, &mut up)
            .unwrap();
        c.access(Cycle(1), store(2, l[1], 9), &mut down, &mut up)
            .unwrap();
        c.access(Cycle(2), store(3, l[2], 9), &mut down, &mut up)
            .unwrap();
        assert_eq!(c.stats().writebacks.get(), 1);
        let wb = down.pop_ready(Cycle(2)).unwrap();
        assert!(wb.is_store);
        assert_eq!(wb.line, LineAddr(l[0]), "LRU dirty line written back");
    }

    #[test]
    fn self_invalidate_forces_remisses() {
        let mut c = cache(LevelPolicy::cache_loads_only());
        let (mut down, mut up) = queues();
        warm(&mut c, 8, &mut down, &mut up);
        c.self_invalidate();
        assert_eq!(
            c.access(Cycle(20), load(9, 8, 7), &mut down, &mut up)
                .unwrap(),
            Outcome::MissForwarded
        );
        assert_eq!(c.stats().self_invalidations.get(), 1);
    }

    #[test]
    fn rinse_writes_back_whole_row() {
        let mut p = LevelPolicy::cache_loads_and_stores();
        p.rinse = true;
        // RowMap with 0 channel bits, 2 column bits: rows are 4 consecutive
        // lines. Lines 0..4 share a row but map to sets 0..4 (no set
        // conflict).
        p.row_map = Some(RowMap::new(0, 2));
        let mut c = cache(p);
        let (mut down, mut up) = queues();
        for (i, line) in [0u64, 1, 2, 3].iter().enumerate() {
            c.access(
                Cycle(i as u64),
                store(i as u64, *line, 9),
                &mut down,
                &mut up,
            )
            .unwrap();
        }
        // Two more dirty lines that collide with line 0's set force its
        // eviction (LRU dirty) and must rinse lines 1..3 (same DRAM row
        // as line 0, RowMap(0, 2)).
        let l = colliding(0, 3);
        assert_eq!(l[0], 0);
        assert!(
            l[1] > 3 && l[2] > 3,
            "colliders must be outside row 0: {l:?}"
        );
        c.access(Cycle(4), store(10, l[1], 9), &mut down, &mut up)
            .unwrap();
        c.access(Cycle(5), store(11, l[2], 9), &mut down, &mut up)
            .unwrap();
        assert_eq!(c.stats().writebacks.get(), 1);
        assert_eq!(
            c.stats().rinse_writebacks.get(),
            3,
            "lines 1,2,3 rinsed with 0"
        );
        // Rinsed lines remain resident (clean).
        assert!(c.live_lines() >= 4);
    }

    #[test]
    fn pc_predictor_learns_to_bypass_streaming_pc() {
        let mut p = LevelPolicy::cache_loads_only();
        p.pc_bypass = Some(PredictorConfig {
            sample_period: 0,
            ..PredictorConfig::paper()
        });
        let mut c = cache(p);
        let (mut down, mut up) = queues();
        // Stream distinct lines from one PC; evictions train no-reuse.
        let mut id = 0u64;
        for round in 0..20u64 {
            let line = round * 4; // all map to set 0 -> constant eviction
            id += 1;
            let r = load(id, line, 42);
            match c.access(Cycle(round), r, &mut down, &mut up) {
                Ok(Outcome::MissForwarded) => {
                    let fwd = down.pop_ready(Cycle(round)).unwrap();
                    c.fill(Cycle(round), MemResp::for_req(&fwd), &mut up)
                        .unwrap();
                    up.pop_ready(Cycle(round)).unwrap();
                }
                Ok(Outcome::BypassForwarded) => {
                    let fwd = down.pop_ready(Cycle(round)).unwrap();
                    c.fill(Cycle(round), MemResp::for_req(&fwd), &mut up)
                        .unwrap();
                    up.pop_ready(Cycle(round)).unwrap();
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(
            c.stats().predictor_bypasses.get() > 0,
            "streaming PC should learn to bypass: {:?}",
            c.stats()
        );
    }

    #[test]
    fn fill_without_entry_passes_through() {
        let mut c = cache(LevelPolicy::cache_loads_only());
        let (_, mut up) = queues();
        let resp = MemResp {
            id: ReqId(77),
            line: LineAddr(8),
            origin: Origin::Wavefront { cu: 1, slot: 2 },
        };
        c.fill(Cycle(0), resp, &mut up).unwrap();
        assert_eq!(up.pop_ready(Cycle(0)).unwrap().id, ReqId(77));
        assert_eq!(c.live_lines(), 0);
    }

    #[test]
    fn mshr_full_blocks_and_counts() {
        let mut c = cache(LevelPolicy::cache_loads_only());
        let (mut down, mut up) = queues();
        // tiny_test: 4 MSHR entries; use 4 different sets to avoid SetBusy.
        for (i, line) in [0u64, 1, 2, 3].iter().enumerate() {
            c.access(
                Cycle(i as u64),
                load(i as u64, *line, 7),
                &mut down,
                &mut up,
            )
            .unwrap();
        }
        let err = c
            .access(Cycle(1), load(9, 20, 7), &mut down, &mut up)
            .unwrap_err();
        assert_eq!(err, Blocked::MshrFull);
        assert_eq!(c.stats().stall_mshr.get(), 1);
    }

    #[test]
    fn service_parks_blocked_requests_and_lets_younger_overtake() {
        // 2-way tiny cache: two misses fill a set; a third load to the
        // same set parks in the replay buffer and a younger load to a
        // different set proceeds past it.
        let mut c = cache(LevelPolicy::cache_loads_only());
        let (mut down, mut up) = queues();
        let mut input: TimedQueue<MemReq> = TimedQueue::new(16, 0);
        let l = colliding(4, 3);
        let other_set = (l[2] + 1..)
            .find(|x| {
                crate::tags::set_index_for(LineAddr(*x), 4, 31, 0)
                    != crate::tags::set_index_for(LineAddr(l[0]), 4, 31, 0)
            })
            .unwrap();
        for (i, line) in [l[0], l[1], l[2], other_set].iter().enumerate() {
            input.push(Cycle(0), load(i as u64, *line, 7)).unwrap();
        }
        for cyc in 0..8 {
            c.service(Cycle(cyc), &mut input, &mut down, &mut up);
        }
        // The set-conflicting load is parked, the other-set load got out.
        let forwarded: Vec<u64> = down.drain_all().map(|r| r.line.0).collect();
        assert!(
            forwarded.contains(&other_set),
            "younger request overtook: {forwarded:?}"
        );
        assert!(!forwarded.contains(&l[2]), "blocked request stays parked");
        assert!(c.busy(), "replay entry pending");
        assert!(c.stats().stall_set_busy.get() > 0);
    }

    #[test]
    fn parked_replays_complete_after_fills() {
        let mut c = cache(LevelPolicy::cache_loads_only());
        let (mut down, mut up) = queues();
        let mut input: TimedQueue<MemReq> = TimedQueue::new(16, 0);
        let l = colliding(4, 3);
        for (i, line) in l.iter().enumerate() {
            input.push(Cycle(0), load(i as u64, *line, 7)).unwrap();
        }
        // Drive with an ideal memory below.
        let mut now = 0u64;
        while (c.busy() || !input.is_empty()) && now < 10_000 {
            c.service(Cycle(now), &mut input, &mut down, &mut up);
            while let Some(fwd) = down.pop_ready(Cycle(now)) {
                if fwd.wants_response() {
                    let _ = c.fill(Cycle(now), MemResp::for_req(&fwd), &mut up);
                }
            }
            while up.pop_ready(Cycle(now)).is_some() {}
            now += 1;
        }
        assert!(input.is_empty());
        assert!(!c.busy(), "replay drained");
        // All three loads either missed or were answered via replay.
        let s = c.stats();
        assert_eq!(
            s.load_hits.get() + s.load_merges.get() + s.load_misses.get() + s.load_bypasses.get(),
            3
        );
    }

    #[test]
    fn service_never_parks_bandwidth_backpressure() {
        // A full downstream queue is bandwidth backpressure, not a cache
        // resource: the request must stay at the input queue head.
        let mut c = cache(LevelPolicy::cache_loads_only());
        let mut down: TimedQueue<MemReq> = TimedQueue::new(1, 0);
        let mut up: TimedQueue<MemResp> = TimedQueue::new(16, 0);
        let mut input: TimedQueue<MemReq> = TimedQueue::new(16, 0);
        down.push(
            Cycle(0),
            MemReq::writeback(ReqId(99), LineAddr(77), Cycle(0)),
        )
        .unwrap();
        input.push(Cycle(0), load(1, 8, 7)).unwrap();
        c.service(Cycle(0), &mut input, &mut down, &mut up);
        assert_eq!(input.len(), 1, "request stays queued");
        assert!(!c.busy());
    }

    /// A cache with its three queues, built so that the next `service`
    /// call (at [`C0`] or later) holds ready work and consumes none.
    struct Scene {
        c: CacheUnit,
        input: TimedQueue<MemReq>,
        down: TimedQueue<MemReq>,
        up: TimedQueue<MemResp>,
    }

    /// First cycle a [`Scene`] is serviced on.
    const C0: u64 = 10;

    impl Scene {
        fn service(&mut self, at: u64) -> bool {
            self.c
                .service(Cycle(at), &mut self.input, &mut self.down, &mut self.up)
        }

        fn violation(&self, now: u64, wake_pending: bool) -> Option<String> {
            self.c.blocked_wake_violation(
                Cycle(now),
                &self.input,
                &self.down,
                &self.up,
                wake_pending,
            )
        }
    }

    /// A load miss facing a full `down`: one `stall_out_queue` per retry.
    fn out_queue_full() -> Scene {
        let mut s = Scene {
            c: cache(LevelPolicy::cache_loads_only()),
            input: TimedQueue::new(16, 0),
            down: TimedQueue::new(1, 0),
            up: TimedQueue::new(16, 0),
        };
        let wb = MemReq::writeback(ReqId(99), LineAddr(77), Cycle(0));
        s.down.push(Cycle(0), wb).unwrap();
        s.input.push(Cycle(0), load(1, 8, 7)).unwrap();
        s
    }

    /// A load hit facing a full `up`: one `stall_out_queue` per retry.
    fn resp_queue_full() -> Scene {
        let mut c = cache(LevelPolicy::cache_loads_only());
        let (mut down, mut wide_up) = queues();
        warm(&mut c, 8, &mut down, &mut wide_up);
        let mut s = Scene {
            c,
            input: TimedQueue::new(16, 0),
            down,
            up: TimedQueue::new(1, 0),
        };
        s.up.push(Cycle(0), MemResp::for_req(&load(50, 99, 7)))
            .unwrap();
        s.input.push(Cycle(0), load(1, 8, 7)).unwrap();
        s
    }

    /// Every MSHR entry taken and the replay buffer full of loads that
    /// need one: the replay front and the input head each book a
    /// `stall_mshr` per retry, and nothing can be parked.
    fn mshr_full_with_full_replay() -> Scene {
        let mut s = Scene {
            c: cache(LevelPolicy::cache_loads_only()),
            input: TimedQueue::new(16, 0),
            down: TimedQueue::new(64, 0),
            up: TimedQueue::new(16, 0),
        };
        for line in 0..4u64 {
            let r = load(line, line, 7);
            s.c.access(Cycle(line), r, &mut s.down, &mut s.up).unwrap();
        }
        for k in 0..5u64 {
            s.input.push(Cycle(0), load(10 + k, 20 + k, 7)).unwrap();
        }
        for t in 4..8 {
            assert!(s.service(t), "parks one request per call");
        }
        assert_eq!(s.c.replay.len(), REPLAY_CAPACITY);
        assert_eq!(s.c.next_event(Cycle(8)), Some(Cycle(8)), "retrying");
        s
    }

    /// A load whose set is all busy is converted by allocation bypass and
    /// then meets a full `down`: each retry books an `alloc_bypasses` and
    /// a `stall_out_queue`.
    fn alloc_bypass_then_full_down() -> Scene {
        let mut p = LevelPolicy::cache_loads_only();
        p.allocation_bypass = true;
        let mut s = Scene {
            c: cache(p),
            input: TimedQueue::new(16, 0),
            down: TimedQueue::new(2, 0),
            up: TimedQueue::new(16, 0),
        };
        let l = colliding(4, 3);
        for (i, line) in l[..2].iter().enumerate() {
            let r = load(i as u64, *line, 7);
            s.c.access(Cycle(i as u64), r, &mut s.down, &mut s.up)
                .unwrap();
        }
        assert!(!s.down.can_push());
        s.input.push(Cycle(2), load(3, l[2], 7)).unwrap();
        s
    }

    /// A blockage under test: its name, how to set it up, and what one
    /// retry of it books (in `CacheStats::retry_counters` order).
    type BlockedScene = (&'static str, fn() -> Scene, [u64; 6]);

    const SCENES: [BlockedScene; 4] = [
        ("OutQueueFull", out_queue_full, [0, 0, 0, 1, 0, 0]),
        ("RespQueueFull", resp_queue_full, [0, 0, 0, 1, 0, 0]),
        (
            "MshrFull, replay full",
            mshr_full_with_full_replay,
            [2, 0, 0, 0, 0, 0],
        ),
        (
            "allocation bypass, down full",
            alloc_bypass_then_full_down,
            [0, 0, 0, 1, 0, 1],
        ),
    ];

    #[test]
    fn a_sleeping_unit_books_exactly_the_stalls_of_the_calls_it_skipped() {
        for (name, build, per_retry) in SCENES {
            for k in [1u64, 2, 7, 50] {
                // The specification: one call per cycle.
                let mut every = build();
                let start = every.c.stats().retry_counters();
                for t in C0..=C0 + k {
                    assert!(!every.service(t), "{name}: blocked at {t}");
                }
                // Blocked at C0, next called at C0 + k.
                let mut sleepy = build();
                assert!(!sleepy.service(C0));
                assert_eq!(sleepy.c.next_event(Cycle(C0 + 1)), None, "{name}: asleep");
                assert!(!sleepy.service(C0 + k));

                assert_eq!(every.c.stats(), sleepy.c.stats(), "{name}, k = {k}");
                let end = sleepy.c.stats().retry_counters();
                for i in 0..6 {
                    assert_eq!(end[i] - start[i], per_retry[i] * (k + 1), "{name}[{i}]");
                }
                assert_eq!(every.c.blocked_since(), Some(Cycle(C0)), "{name}");
                assert_eq!(sleepy.c.blocked_since(), Some(Cycle(C0)), "{name}");
                let (e, s) = (every.c.service_calls(), sleepy.c.service_calls());
                assert_eq!((e.blocked, e.settled), (k + 1, 0), "{name}");
                assert_eq!((s.blocked, s.settled), (2, k - 1), "{name}");
                assert_eq!(e.executed - s.executed, k - 1, "{name}");
            }
        }
    }

    #[test]
    fn settle_is_idempotent_and_reads_like_a_call_per_cycle() {
        for (name, build, _) in SCENES {
            let mut every = build();
            let mut sleepy = build();
            assert!(!sleepy.service(C0));
            let mut called_through = C0 - 1;
            // Readers at these cycles see the calls through the cycle
            // before; reading twice at one cycle books nothing twice.
            for reader in [C0 + 1, C0 + 4, C0 + 4, C0 + 9] {
                while called_through + 1 < reader {
                    called_through += 1;
                    every.service(called_through);
                }
                sleepy.c.settle(Cycle(reader));
                assert_eq!(every.c.stats(), sleepy.c.stats(), "{name} at {reader}");
            }
            // A spurious call mid-sleep is one real retry, then the sleep
            // goes on; the totals never notice.
            for t in [C0 + 9, C0 + 10, C0 + 13, C0 + 30] {
                while called_through < t {
                    called_through += 1;
                    every.service(called_through);
                }
                assert!(!sleepy.service(t));
                assert_eq!(every.c.stats(), sleepy.c.stats(), "{name} at {t}");
            }
            let (e, s) = (every.c.service_calls(), sleepy.c.service_calls());
            assert_eq!(e.blocked, s.blocked + s.settled, "{name}");
            assert_eq!(sleepy.c.blocked_since(), Some(Cycle(C0)), "{name}");
        }
    }

    #[test]
    fn a_returned_credit_ends_the_sleep_where_a_call_per_cycle_ends_the_stall() {
        let mut every = out_queue_full();
        let mut sleepy = out_queue_full();
        // `down` is popped after the service stage of cycle C0 + 5, so
        // the first call that can act is the one at C0 + 6.
        for t in C0..=C0 + 5 {
            assert!(!every.service(t));
        }
        assert!(!sleepy.service(C0));
        for s in [&mut every, &mut sleepy] {
            s.down.pop_ready(Cycle(C0 + 5)).unwrap();
            assert!(s.service(C0 + 6), "the credit lets the miss out");
            assert_eq!(s.c.blocked_since(), None);
            assert!(!s.service(C0 + 7), "nothing left to do");
            assert_eq!(s.c.blocked_since(), None, "idle is not blocked");
        }
        assert_eq!(every.c.stats(), sleepy.c.stats());
        assert_eq!(sleepy.c.stats().stall_out_queue.get(), 6);
        assert_eq!(sleepy.c.service_calls().settled, 5);
    }

    #[test]
    fn a_predictor_unit_and_a_flushing_unit_never_sleep() {
        // A blocked attempt advances the predictor: not a fixed point.
        let mut p = LevelPolicy::cache_loads_only();
        p.pc_bypass = Some(PredictorConfig::paper());
        let mut s = out_queue_full();
        s.c = cache(p);
        assert!(!s.service(C0));
        assert_eq!(s.c.blocked_since(), None);
        assert_eq!(s.c.service_calls().blocked, 1, "still a blocked retry");

        // A flush drains `down` on its own schedule.
        let mut s = out_queue_full();
        s.c = cache(LevelPolicy::cache_loads_and_stores());
        let mut room = TimedQueue::new(4, 0);
        s.c.access(Cycle(0), store(5, 40, 9), &mut room, &mut s.up)
            .unwrap();
        s.c.start_flush();
        assert!(!s.service(C0));
        assert!(!s.c.flush_done());
        assert_eq!(s.c.blocked_since(), None);
        assert_eq!(s.c.next_event(Cycle(C0 + 1)), Some(Cycle(C0 + 1)));
    }

    #[test]
    fn blocked_unit_wake_names_each_way_a_sleeper_can_be_stranded() {
        // Healthy: asleep, nothing changed, no wake needed.
        let mut s = out_queue_full();
        assert!(!s.service(C0));
        assert_eq!(s.violation(C0 + 1, false), None);
        assert_eq!(s.violation(C0 + 40, false), None);

        // A credit came back and nobody was told.
        s.down.pop_ready(Cycle(C0 + 3)).unwrap();
        assert_eq!(s.violation(C0 + 1, false), None, "serviced last cycle");
        assert_eq!(s.violation(C0 + 5, true), None, "the wake is pending");
        s.c.settle(Cycle(C0 + 5));
        let v = s
            .violation(C0 + 5, false)
            .expect("a reader settling hides nothing");
        assert!(v.contains("down/up went 0/16 -> 1/16"), "{v}");
        assert!(v.contains(&format!("since cycle {C0}")), "{v}");

        // Same on the response side.
        let mut s = resp_queue_full();
        assert!(!s.service(C0));
        s.up.pop_ready(Cycle(C0)).unwrap();
        let v = s.violation(C0 + 2, false).expect("lost credit wake");
        assert!(v.contains("-> 64/1"), "{v}");

        // Asleep on the replay buffer alone; a new head turns ready.
        let mut s = mshr_full_with_full_replay();
        s.input.pop_ready(Cycle(C0)).unwrap();
        assert!(!s.service(C0));
        assert_eq!(s.violation(C0 + 9, false), None);
        s.input.push(Cycle(C0 + 4), load(70, 70, 7)).unwrap();
        assert_eq!(s.violation(C0 + 3, false), None, "not ready yet");
        let v = s.violation(C0 + 9, false).expect("lost head wake");
        assert!(
            v.contains(&format!("turned ready at cycle {}", C0 + 4)),
            "{v}"
        );

        // The work it blocked on is gone.
        let mut s = out_queue_full();
        assert!(!s.service(C0));
        s.input.pop_ready(Cycle(C0)).unwrap();
        let v = s.violation(C0 + 1, true).expect("nothing held");
        assert!(
            v.contains("no parked replay and no ready input head"),
            "{v}"
        );

        // A unit that must not sleep does.
        let mut s = out_queue_full();
        assert!(!s.service(C0));
        s.c.pending_flush.push(LineAddr(1));
        let v = s.violation(C0 + 1, true).expect("flush in progress");
        assert!(v.contains("flush"), "{v}");
    }

    #[test]
    fn saturated_rinse_retracks_what_it_could_not_write_back() {
        // No room downstream while rinsing a row: the blocks stay dirty
        // and tracked, which never costs another row its place.
        let mut p = LevelPolicy::cache_loads_and_stores();
        p.rinse = true;
        p.row_map = Some(RowMap::new(0, 2));
        let mut c = cache(p);
        let mut down: TimedQueue<MemReq> = TimedQueue::new(1, 0);
        let mut up: TimedQueue<MemResp> = TimedQueue::new(16, 0);
        let mut id = 0;
        let mut out = Vec::new();
        for round in 0..40u64 {
            for line in [round * 4, round * 4 + 1, round * 4 + 2] {
                id += 1;
                let _ = c.access(Cycle(round), store(id, line, 9), &mut down, &mut up);
            }
            if round % 3 == 0 {
                down.pop_ready(Cycle(round));
            }
            assert!(c.row_scratch.is_empty());
            c.check_invariants("l2[0]", &mut out);
            assert!(out.is_empty(), "round {round}: {out:?}");
        }
        assert!(c.stats().writebacks.get() > 0, "evictions happened");
        assert!(c.dbi.as_ref().unwrap().tracked_blocks() > 0);
    }

    #[test]
    fn sentinel_is_quiet_on_a_healthy_cache() {
        let mut p = LevelPolicy::cache_loads_and_stores();
        p.rinse = true;
        p.row_map = Some(RowMap::new(0, 2));
        let mut c = cache(p);
        let (mut down, mut up) = queues();
        let mut out = Vec::new();
        for i in 0..12u64 {
            let _ = c.access(Cycle(i), load(i, i * 3, 7), &mut down, &mut up);
            let _ = c.access(Cycle(i), store(100 + i, i * 5, 9), &mut down, &mut up);
            while let Some(fwd) = down.pop_ready(Cycle(i)) {
                if fwd.wants_response() {
                    let _ = c.fill(Cycle(i), MemResp::for_req(&fwd), &mut up);
                }
            }
            while up.pop_ready(Cycle(i)).is_some() {}
            c.check_invariants("l2[0]", &mut out);
            assert!(out.is_empty(), "violations at cycle {i}: {out:?}");
        }
    }

    #[test]
    fn leaked_allocating_mshr_entry_is_caught_and_named() {
        let mut c = cache(LevelPolicy::cache_loads_only());
        c.inject_mshr_leak(LineAddr(8), true);
        let mut out = Vec::new();
        c.check_invariants("l1[3]", &mut out);
        assert_eq!(out.len(), 1, "violations: {out:?}");
        assert_eq!(out[0].component, "l1[3]");
        assert_eq!(out[0].invariant, "mshr_reservation");
        assert!(out[0].detail.contains("reserves no way"));
    }

    #[test]
    fn leaked_bypass_mshr_entry_wedges_but_passes_structural_checks() {
        let mut c = cache(LevelPolicy::cache_loads_only());
        c.inject_mshr_leak(LineAddr(8), false);
        let mut out = Vec::new();
        c.check_invariants("l1[0]", &mut out);
        assert!(out.is_empty(), "structurally plausible leak: {out:?}");
        assert!(c.busy(), "the leak must wedge the drain");
        assert_eq!(c.mshr_snapshot().len(), 1);
        assert!(c.mshr_snapshot()[0].contains("line 0x8"));
    }

    #[test]
    fn dbi_cross_check_catches_phantom_dirty_tracking() {
        let mut p = LevelPolicy::cache_loads_and_stores();
        p.rinse = true;
        p.row_map = Some(RowMap::new(0, 2));
        let mut c = cache(p);
        let (mut down, mut up) = queues();
        c.access(Cycle(0), store(1, 8, 9), &mut down, &mut up)
            .unwrap();
        let mut out = Vec::new();
        c.check_invariants("l2[0]", &mut out);
        assert!(out.is_empty(), "{out:?}");
        // Track a block that is not resident dirty: the forward cross-check
        // must flag it.
        c.dbi.as_mut().unwrap().insert(LineAddr(100));
        c.check_invariants("l2[0]", &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].invariant, "dbi_dirty_tracking");
        assert_eq!(out[0].component, "l2[0].dbi");
    }

    #[test]
    fn port_width_limits_accesses_per_cycle() {
        let mut c = cache(LevelPolicy::cache_loads_only());
        let (mut down, mut up) = queues();
        warm_at(&mut c, Cycle(0), 8, &mut down, &mut up);
        warm_at(&mut c, Cycle(1), 9, &mut down, &mut up);
        // Two hits in the same cycle: second is port-blocked.
        assert!(c
            .access(Cycle(50), load(1, 8, 7), &mut down, &mut up)
            .is_ok());
        assert_eq!(
            c.access(Cycle(50), load(2, 9, 7), &mut down, &mut up)
                .unwrap_err(),
            Blocked::PortBusy
        );
        // Next cycle it goes through.
        assert!(c
            .access(Cycle(51), load(2, 9, 7), &mut down, &mut up)
            .is_ok());
    }
}
