use crate::{Metrics, PolicyConfig, SystemConfig};
use miopt_cache::{CacheConfig, CacheStats, CacheUnit, LevelPolicy, ServiceCalls, WayRange};
use miopt_dram::Dram;
use miopt_engine::sentinel::{InvariantViolation, Sentinel};
use miopt_engine::util::bits;
use miopt_engine::{Cycle, EventWheel, LineAddr, MemReq, MemResp, TimedQueue};
use miopt_gpu::{Gpu, KernelDesc};
use miopt_noc::Crossbar;
use miopt_telemetry::{Recorder, StatSnapshot, TelemetryRun};
use miopt_workloads::Workload;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Why a run halted without completing (see [`StallDiagnostic`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// The configured cycle budget ran out while the system was still
    /// making (possibly glacial) progress.
    CycleBudget,
    /// The sentinel watchdog saw no retirement, queue movement, or DRAM
    /// activity for its full window: the system is wedged.
    NoForwardProgress,
    /// A component's conservation invariant was violated (see
    /// [`StallDiagnostic::violations`]).
    InvariantViolation,
}

impl fmt::Display for StallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StallReason::CycleBudget => "cycle budget exhausted",
            StallReason::NoForwardProgress => "no forward progress",
            StallReason::InvariantViolation => "invariant violation",
        })
    }
}

/// A structured snapshot of a stuck simulation, captured at the moment a
/// run fails: where every in-flight request is, which invariants (if any)
/// are broken, and what the wavefronts are waiting on.
///
/// The error [`ApuSystem::run_to_completion`] returns. Its `Display` is
/// the one-line status; [`StallDiagnostic::report`] is the full text, and
/// the harness serializes the fields into the sweep report so a wedged
/// overnight run is diagnosable from the JSON alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallDiagnostic {
    /// The cycle at which the run halted.
    pub cycle: u64,
    /// The phase label at halt time (`launch`, `run`, `drain_kernel`, …).
    pub phase: &'static str,
    /// Why the run halted.
    pub reason: StallReason,
    /// The cycle budget of the halted run.
    pub budget: u64,
    /// The oldest request still sitting in a hierarchy queue (by issue
    /// cycle), with the queue that holds it. `None` when all queues are
    /// empty (the wedge is inside a component, e.g. a leaked MSHR).
    pub oldest_request: Option<String>,
    /// Occupancy of every nonempty queue, in registry order.
    pub queues: Vec<(String, usize)>,
    /// Outstanding MSHR entries per cache that has any, in registry
    /// order (each entry formatted by `CacheUnit::mshr_snapshot`).
    pub mshrs: Vec<(String, Vec<String>)>,
    /// Per-CU wavefront state: `cu[i]: N resident, M loads outstanding,
    /// K accesses unissued` for every CU with resident wavefronts.
    pub wavefronts: Vec<String>,
    /// Every cache unit whose last `service` call held ready work and
    /// consumed none of it, with the first cycle of that blockage
    /// (`l1[3]: blocked since cycle 1207`), in registry order. Under the
    /// event core these are the units asleep at halt time.
    pub blocked_units: Vec<String>,
    /// Every invariant violation found at halt time (empty unless
    /// [`StallReason::InvariantViolation`], or the stall uncovered one).
    pub violations: Vec<InvariantViolation>,
}

impl StallDiagnostic {
    /// The multi-line report: the halt cycle, phase and reason, then one
    /// line per violation, the oldest request, each occupied queue, each
    /// cache's MSHRs, each CU's wavefronts and each blocked unit.
    #[must_use]
    pub fn report(&self) -> String {
        let mut lines = vec![format!(
            "stall at cycle {} (phase {}): {}",
            self.cycle, self.phase, self.reason
        )];
        lines.extend(self.violations.iter().map(|v| format!("  violation: {v}")));
        lines.extend(
            self.oldest_request
                .iter()
                .map(|r| format!("  oldest request: {r}")),
        );
        lines.extend(
            self.queues
                .iter()
                .map(|(q, n)| format!("  queue {q}: {n} occupied")),
        );
        lines.extend(
            self.mshrs
                .iter()
                .map(|(name, entries)| format!("  mshr {name}: {}", entries.join("; "))),
        );
        lines.extend(
            self.wavefronts
                .iter()
                .chain(&self.blocked_units)
                .map(|w| format!("  {w}")),
        );
        lines.join("\n") + "\n"
    }
}

/// The one-line status of a halted run.
impl fmt::Display for StallDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.reason {
            StallReason::CycleBudget => write!(f, "simulation exceeded {} cycles", self.budget),
            StallReason::NoForwardProgress => {
                write!(f, "no forward progress since cycle {}", self.cycle)
            }
            StallReason::InvariantViolation => {
                write!(f, "invariant violation at cycle {}", self.cycle)?;
                if let Some(v) = self.violations.first() {
                    write!(f, " ({v})")?;
                }
                Ok(())
            }
        }
    }
}

impl Error for StallDiagnostic {}

/// Sentinel bookkeeping: invariant-check cadence and the forward-progress
/// watchdog. Lives behind an `Option<Box<_>>` so release runs without
/// `--check-invariants` pay nothing (the same idiom as telemetry).
#[derive(Debug)]
struct SentinelState {
    /// Cycles between invariant sweeps (and watchdog fingerprints).
    check_interval: u64,
    /// Declare a wedge after this many cycles without progress
    /// (0 disables the watchdog).
    watchdog_cycles: u64,
    /// Next cycle at which to run a check.
    next_check: Cycle,
    /// Progress fingerprint at the last check.
    last_fingerprint: u64,
    /// Cycle since which the fingerprint has not changed.
    stable_since: Cycle,
}

impl SentinelState {
    fn new(check_interval: u64, watchdog_cycles: u64) -> SentinelState {
        assert!(
            check_interval > 0,
            "sentinel check interval must be nonzero"
        );
        SentinelState {
            check_interval,
            watchdog_cycles,
            next_check: Cycle(check_interval),
            last_fingerprint: 0,
            stable_since: Cycle::ZERO,
        }
    }
}

// --- Event-core actors -------------------------------------------------
//
// The run loop decomposes one simulated cycle into ten actors, one per
// pipeline stage. The actor id IS its dispatch priority within a cycle:
// the memory hierarchy ticks from DRAM upward (stages 1-10), then the
// phase machine (`advance_phase`) runs last. Telemetry samples and
// sentinel checks are not actors: the run loop keeps their cadences and
// runs them at a cycle before its stages. The per-cycle oracle is the
// same loop with every stage woken on every cycle
// (`EventCore::wake_every_stage`).

/// DRAM scheduling plus response drain toward the L2 slices (stages 1-2).
const A_DRAM: usize = 0;
/// L2 fills from DRAM responses (stage 3).
const A_L2_FILL: usize = 1;
/// L2 access servicing with miss-replay (stage 4).
const A_L2_SERVICE: usize = 2;
/// L2 writeback/miss traffic into DRAM (stage 5).
const A_L2_TO_DRAM: usize = 3;
/// Response crossbar, L2 slices toward L1s (stage 6).
const A_RESP_XBAR: usize = 4;
/// L1 fills from the response crossbar (stage 7).
const A_L1_FILL: usize = 5;
/// L1 access servicing with miss-replay (stage 8).
const A_L1_SERVICE: usize = 6;
/// Request crossbar, L1s toward L2 slices (stage 9).
const A_REQ_XBAR: usize = 7;
/// Response delivery from the L1s to the GPU (stage 10).
const A_GPU_RESP: usize = 8;
/// The phase machine: GPU execution, drains, flushes, launches.
const A_PHASE: usize = 9;
/// Number of actors (and the width of the scheduled-cycle table).
const N_ACTORS: usize = 10;

/// "Not scheduled" sentinel for [`EventCore::scheduled`].
const NEVER: Cycle = Cycle(u64::MAX);

/// Sentinel in [`UNIT_WHEEL`] for actors without unit-level scheduling.
const NO_WHEEL: usize = usize::MAX;

/// Unit-wheel index per actor. The six replicated-unit actors — the 16
/// L2 slices' fill/service/writeback stages and the 64 L1s'
/// fill/service/response stages — schedule *per unit*, so a dispatch
/// walks only the slices or CUs with due work instead of all of them.
/// The remaining actors (DRAM, the two crossbars, phase) are single
/// components and stay actor-level.
const UNIT_WHEEL: [usize; N_ACTORS] = {
    let mut t = [NO_WHEEL; N_ACTORS];
    t[A_L2_FILL] = 0;
    t[A_L2_SERVICE] = 1;
    t[A_L2_TO_DRAM] = 2;
    t[A_L1_FILL] = 3;
    t[A_L1_SERVICE] = 4;
    t[A_GPU_RESP] = 5;
    t
};

/// Number of unit wheels (distinct non-sentinel entries of [`UNIT_WHEEL`]).
const N_UNIT_WHEELS: usize = 6;

/// Display names for the per-actor dispatch histogram, indexed by actor id.
const ACTOR_NAMES: [&str; N_ACTORS] = [
    "dram",
    "l2_fill",
    "l2_service",
    "l2_to_dram",
    "resp_xbar",
    "l1_fill",
    "l1_service",
    "req_xbar",
    "gpu_resp",
    "phase",
];

/// One actor's row in an [`EventProfile`]: where the event core's wall
/// clock and heap traffic went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventProfileRow {
    /// Event-core stage name (as in [`ApuSystem::event_stats_by_actor`]).
    pub name: &'static str,
    /// Dispatches of this actor while the profiler was enabled.
    pub events: u64,
    /// Wall-clock nanoseconds spent inside this actor's dispatches.
    pub nanos: u64,
    /// Heap allocations observed inside this actor's dispatches. Only
    /// meaningful when the process installed a counting allocator that
    /// reports into `miopt_engine::alloc_track` (zero otherwise).
    pub allocs: u64,
}

/// Per-actor cost breakdown of an event-core run, collected by
/// [`ApuSystem::enable_profiler`] and retrieved with
/// [`ApuSystem::take_profile`].
#[derive(Debug, Clone, Default)]
pub struct EventProfile {
    /// One row per event-core actor, in dispatch-priority order.
    pub actors: Vec<EventProfileRow>,
}

impl EventProfile {
    /// Total dispatches across all actors.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.actors.iter().map(|r| r.events).sum()
    }

    /// Total profiled nanoseconds across all actors.
    #[must_use]
    pub fn total_nanos(&self) -> u64 {
        self.actors.iter().map(|r| r.nanos).sum()
    }

    /// Total heap allocations observed across all actors.
    #[must_use]
    pub fn total_allocs(&self) -> u64 {
        self.actors.iter().map(|r| r.allocs).sum()
    }
}

/// Accumulators behind [`ApuSystem::enable_profiler`], boxed so the
/// common unprofiled path carries only a null pointer check.
#[derive(Debug, Default)]
struct ProfilerState {
    events: [u64; N_ACTORS],
    nanos: [u64; N_ACTORS],
    allocs: [u64; N_ACTORS],
}

/// The event-driven scheduler: a calendar-queue wheel of actor wakeups,
/// the earliest pending wake of each single-component actor, and one
/// unit wheel per replicated-unit actor.
///
/// The `scheduled` table makes a single-component actor's wheel entries
/// *lazy*: waking it earlier than a cycle already in the wheel just
/// inserts the earlier entry and lets the stale one pop as a no-op (it
/// no longer matches `scheduled`). A replicated-unit actor's entries are
/// instead *mirrored*: every unit wake puts the unit in the actor's unit
/// wheel and the actor in the actor wheel at the same cycle, so each
/// actor-wheel entry stands for exactly one unit-wheel slot. Within a
/// dispatching cycle, an actor may wake another actor at the *same*
/// cycle only if the target's priority is higher than the one currently
/// dispatching (its stage is still to come, just as in the per-cycle
/// stage order); otherwise the wake clamps to the next cycle.
#[derive(Debug)]
struct EventCore {
    wheel: EventWheel,
    /// Per-unit wakeups for the replicated-unit actors (see
    /// [`UNIT_WHEEL`]): wheel `UNIT_WHEEL[a]` holds, per cycle, the mask
    /// of actor `a`'s units due then. Every cycle holding an entry also
    /// holds `a`'s bit in the actor wheel — or in `due`, for the cycle
    /// being dispatched — so a dispatch takes its units with one O(1)
    /// [`EventWheel::take`] (the sentinel's `unit_wake_mirrored`).
    units: [EventWheel; N_UNIT_WHEELS],
    /// Every unit of each unit wheel's actor: the L2 slices or the CUs.
    all_units: [u64; N_UNIT_WHEELS],
    /// Earliest pending wake per single-component actor ([`NEVER`] when
    /// idle); unused for the replicated-unit actors.
    scheduled: [Cycle; N_ACTORS],
    /// Actors still to dispatch in the cycle currently being processed.
    due: u64,
    /// The cycle currently being dispatched.
    now: Cycle,
    /// The actor currently dispatching (same-cycle wake arbitration).
    current: usize,
    /// Cumulative dispatches (the "events" of the event core) by actor.
    events_by_actor: [u64; N_ACTORS],
    /// Cumulative cycles with at least one dispatch.
    active_cycles: u64,
}

impl EventCore {
    /// A core for `n_cus` CUs and `n_slices` L2 slices (each 1..=64).
    fn new(n_cus: usize, n_slices: usize) -> EventCore {
        let (l1, l2) = (u64::MAX >> (64 - n_cus), u64::MAX >> (64 - n_slices));
        EventCore {
            wheel: EventWheel::new(),
            units: std::array::from_fn(|_| EventWheel::new()),
            all_units: [l2, l2, l2, l1, l1, l1],
            scheduled: [NEVER; N_ACTORS],
            due: 0,
            now: Cycle::ZERO,
            current: N_ACTORS,
            events_by_actor: [0; N_ACTORS],
            active_cycles: 0,
        }
    }

    /// Clears all pending wakes and rebases the wheels at `now` (run
    /// entry).
    fn reset(&mut self, now: Cycle) {
        self.wheel.reset(now);
        for w in &mut self.units {
            w.reset(now);
        }
        self.scheduled = [NEVER; N_ACTORS];
        self.due = 0;
        self.now = now;
        self.current = N_ACTORS;
    }

    /// Wakes every stage — each actor and every unit of the
    /// replicated-unit actors — at `at`, a cycle no actor is scheduled
    /// before: the oracle's wake policy after each cycle, and run entry.
    /// A stage with nothing to do is a no-op, so waking it is harmless.
    fn wake_every_stage(&mut self, at: Cycle) {
        for (a, &w) in UNIT_WHEEL.iter().enumerate() {
            if w == NO_WHEEL {
                self.scheduled[a] = at;
            }
        }
        self.wheel.insert_mask(at, (1 << N_ACTORS) - 1);
        for (w, &all) in self.units.iter_mut().zip(&self.all_units) {
            w.insert_mask(at, all);
        }
    }

    /// Mid-run wake of a single-component actor: schedules `actor` at
    /// `at`, clamped to the currently dispatching cycle's successor
    /// unless the target's stage for this cycle is still to come
    /// (strictly higher priority than the actor dispatching now).
    fn wake(&mut self, actor: usize, at: Cycle) {
        debug_assert_eq!(UNIT_WHEEL[actor], NO_WHEEL, "unit actors wake per unit");
        if at <= self.now && actor > self.current {
            self.scheduled[actor] = self.now;
            self.due |= 1 << actor;
            return;
        }
        let at = if at > self.now { at } else { self.now + 1 };
        if at < self.scheduled[actor] {
            self.scheduled[actor] = at;
            self.wheel.insert(at, actor as u8);
        }
    }

    /// Mid-run wake of one unit of a replicated-unit actor, with the
    /// same same-cycle clamping as [`EventCore::wake`]: two idempotent
    /// inserts, the unit into the actor's unit wheel and the actor into
    /// the actor wheel at the same cycle — or, for this cycle's later
    /// stage, into `due`.
    fn wake_unit(&mut self, actor: usize, at: Cycle, unit: usize) {
        let units = &mut self.units[UNIT_WHEEL[actor]];
        if at <= self.now && actor > self.current {
            units.insert(self.now, unit as u8);
            self.due |= 1 << actor;
        } else {
            let at = if at > self.now { at } else { self.now + 1 };
            units.insert(at, unit as u8);
            self.wheel.insert(at, actor as u8);
        }
    }

    /// Reschedules unit `i` of `level`, whose `service` stage is `actor`,
    /// after a `service` call: for its input head — unless the unit sleeps
    /// and that head is ready already, since a fill or a credit wakes a
    /// sleeper — and for the unit's own next event.
    fn rewake_service(&mut self, actor: usize, level: &CacheLevel, now: Cycle, i: usize) {
        if let Some(at) = level.input[i].next_ready() {
            if at > now || !level.is_asleep(i) {
                self.wake_unit(actor, at, i);
            }
        }
        if let Some(at) = level.units[i].next_event(now + 1) {
            self.wake_unit(actor, at, i);
        }
    }

    /// Whether `unit` of `actor` has a wake pending at `now`. Between
    /// cycles the unit wheels hold nothing earlier: every entry is
    /// mirrored by an actor-level wake whose dispatch takes it.
    fn unit_wake_pending(&self, actor: usize, now: Cycle, unit: usize) -> bool {
        self.units[UNIT_WHEEL[actor]].pending_at(now) >> unit & 1 != 0
    }
}

/// A crossbar's exact reschedule after a tick: the earliest ready cycle
/// among the heads of the `pending` input queues — after a masked tick
/// exactly the nonempty ones — clamped to `soon`, the first cycle the
/// crossbar can run again; `None` when every input is empty. Stops at the
/// first head ready by `soon`, so a saturated crossbar pays for one input.
fn earliest_head<T>(pending: u64, inputs: &[TimedQueue<T>], soon: Cycle) -> Option<Cycle> {
    let mut next: Option<Cycle> = None;
    for i in bits(pending) {
        if let Some(at) = inputs[i].next_ready() {
            if at <= soon {
                return Some(soon);
            }
            if next.is_none_or(|n| at < n) {
                next = Some(at);
            }
        }
    }
    next
}

/// One level of the cache hierarchy (paper Fig. 3): the per-CU L1s or
/// the L2 slices — one cache model — with the four queue families around
/// each unit and the mask of units asleep on a blocked request.
#[derive(Debug)]
struct CacheLevel {
    /// `l1` or `l2`: unit `i` is `{name}[i]` in diagnostics.
    name: &'static str,
    units: Vec<CacheUnit>,
    /// Requests to service: from the GPU (L1) or the request crossbar (L2).
    input: Vec<TimedQueue<MemReq>>,
    /// Misses and writebacks: into the request crossbar (L1) or DRAM (L2).
    down: Vec<TimedQueue<MemReq>>,
    /// Responses: to the GPU (L1) or into the response crossbar (L2).
    up: Vec<TimedQueue<MemResp>>,
    /// Fill data: from the response crossbar (L1) or DRAM (L2).
    fill_in: Vec<TimedQueue<MemResp>>,
    /// One bit per unit: set exactly while that unit sleeps on a blocked
    /// request (`CacheUnit::blocked_since`), refreshed after each of its
    /// `service` calls under either engine. The credit edges test a bit
    /// here instead of reaching into the unit on every queue pop.
    asleep: u64,
}

impl CacheLevel {
    /// `n` units of `cache` under `policy`, numbered from `id0`, with
    /// queues of capacity `cap` and latencies `[input, down, up, fill_in]`.
    fn new(
        name: &'static str,
        n: usize,
        cache: &CacheConfig,
        policy: &LevelPolicy,
        id0: u32,
        cap: usize,
        lat: [u64; 4],
    ) -> CacheLevel {
        CacheLevel {
            name,
            units: (0..n)
                .map(|i| CacheUnit::new(cache.clone(), policy.clone(), id0 + i as u32))
                .collect(),
            input: (0..n).map(|_| TimedQueue::new(cap, lat[0])).collect(),
            down: (0..n).map(|_| TimedQueue::new(cap, lat[1])).collect(),
            up: (0..n).map(|_| TimedQueue::new(cap, lat[2])).collect(),
            fill_in: (0..n).map(|_| TimedQueue::new(cap, lat[3])).collect(),
            asleep: 0,
        }
    }

    /// Unit `i`'s name in diagnostics.
    fn unit_name(&self, i: usize) -> String {
        format!("{}[{i}]", self.name)
    }

    /// Whether unit `i` sleeps on a blocked request.
    fn is_asleep(&self, i: usize) -> bool {
        self.asleep >> i & 1 != 0
    }

    /// Up to two fills into unit `i` from its fill queue; returns whether
    /// any landed.
    fn fill(&mut self, now: Cycle, i: usize) -> bool {
        let mut acted = false;
        for _ in 0..2 {
            let Some(&resp) = self.fill_in[i].ready_front(now) else {
                break;
            };
            if self.units[i].fill(now, resp, &mut self.up[i]).is_err() {
                break; // response queue full; retry next cycle
            }
            self.fill_in[i].pop_ready(now);
            acted = true;
        }
        acted
    }

    /// Unit `i`'s accesses (with miss-replay, up to its port width);
    /// returns whether it consumed a request, and refreshes its sleep
    /// bit. The handlers' loops inline it: as a call it cost the event
    /// core some 3 % of a latency-bound run.
    #[inline]
    fn service(&mut self, now: Cycle, i: usize) -> bool {
        let unit = &mut self.units[i];
        let acted = unit.service(now, &mut self.input[i], &mut self.down[i], &mut self.up[i]);
        let asleep = unit.blocked_since().is_some();
        self.asleep = self.asleep & !(1 << i) | u64::from(asleep) << i;
        acted
    }

    /// The units' statistics, merged.
    fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for c in &self.units {
            total.merge(c.stats());
        }
        total
    }

    /// The units' `service` workload, summed.
    fn service_calls(&self) -> ServiceCalls {
        let mut total = ServiceCalls::default();
        for c in &self.units {
            total.merge(&c.service_calls());
        }
        total
    }

    /// Books every sleeping unit's blocked retries before `now`.
    fn settle(&mut self, now: Cycle) {
        for c in &mut self.units {
            c.settle(now);
        }
    }

    fn set_policy(&mut self, policy: &LevelPolicy) {
        for c in &mut self.units {
            c.set_policy(policy.clone());
        }
    }

    fn self_invalidate(&mut self) {
        for c in &mut self.units {
            c.self_invalidate();
        }
    }

    /// Appends `(unit, entries)` for every unit with outstanding MSHR
    /// entries, and `unit: blocked since cycle c` for every sleeping one.
    fn stall_lists(&self, mshrs: &mut Vec<(String, Vec<String>)>, blocked: &mut Vec<String>) {
        for (i, c) in self.units.iter().enumerate() {
            let snap = c.mshr_snapshot();
            if !snap.is_empty() {
                mshrs.push((self.unit_name(i), snap));
            }
            if let Some(since) = c.blocked_since() {
                blocked.push(format!("{}: blocked since {since}", self.unit_name(i)));
            }
        }
    }
}

/// What the queue registry's readers need of a queue, whichever of
/// requests or responses it carries.
trait RegistryQueue: Sentinel {
    fn occupancy(&self) -> usize;
    fn pushes(&self) -> u64;
    /// The oldest request it holds, by issue cycle; none for responses.
    fn oldest(&self) -> Option<&MemReq> {
        None
    }
}

impl RegistryQueue for TimedQueue<MemReq> {
    fn occupancy(&self) -> usize {
        self.len()
    }
    fn pushes(&self) -> u64 {
        self.pushed()
    }
    fn oldest(&self) -> Option<&MemReq> {
        self.iter().min_by_key(|r| r.issue_cycle)
    }
}

impl RegistryQueue for TimedQueue<MemResp> {
    fn occupancy(&self) -> usize {
        self.len()
    }
    fn pushes(&self) -> u64 {
        self.pushed()
    }
}

/// One queue family of the registry: a queue per unit of its level.
#[derive(Clone, Copy)]
enum Family<'a> {
    Req(&'a [TimedQueue<MemReq>]),
    Resp(&'a [TimedQueue<MemResp>]),
}

impl<'a> Family<'a> {
    /// The family's queues, in unit order.
    fn queues(self) -> impl Iterator<Item = &'a dyn RegistryQueue> {
        let (req, resp): (&[_], &[_]) = match self {
            Family::Req(qs) => (qs, &[]),
            Family::Resp(qs) => (&[], qs),
        };
        let req = req.iter().map(|q| q as &dyn RegistryQueue);
        req.chain(resp.iter().map(|q| q as &dyn RegistryQueue))
    }
}

/// Where the system is in the kernel-boundary protocol (paper Section
/// III): launch → run → drain → release flush → drain → self-invalidate →
/// next launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Host-side launch overhead until the given cycle.
    Launching { until: Cycle },
    /// Wavefronts executing.
    Running,
    /// Wavefronts done; draining in-flight memory operations.
    DrainKernel,
    /// Writing back all L2 dirty data (release at a system-scope
    /// synchronization point).
    Flushing,
    /// Draining the flush writebacks to DRAM.
    DrainFlush,
    /// All launches complete.
    Finished,
}

/// The simulated APU: the GPU of [`miopt_gpu`], per-CU L1s, the sliced
/// shared L2, request/response crossbars, and HBM2 DRAM, driven one cycle
/// at a time.
///
/// # Examples
///
/// ```
/// use miopt::{ApuSystem, CachePolicy, PolicyConfig, SystemConfig};
/// use miopt_workloads::{by_name, SuiteConfig};
///
/// let workload = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
/// let mut sys = ApuSystem::new(
///     SystemConfig::small_test(),
///     PolicyConfig::of(CachePolicy::CacheR),
///     &workload,
/// );
/// let metrics = sys.run_to_completion(50_000_000).unwrap();
/// assert!(metrics.cycles > 0);
/// ```
#[derive(Debug)]
pub struct ApuSystem {
    cfg: SystemConfig,
    gpu: Gpu,
    l1: CacheLevel,
    /// "Possibly nonempty" bit per `l1.down` queue, maintained for
    /// [`Crossbar::tick_tracked_masked`]: set whenever an L1 services
    /// (the only producer of `l1.down` traffic), cleared by the crossbar
    /// on observing the queue empty. Spurious sets are harmless; a
    /// cleared bit promises the queue is empty.
    req_pending: u64,
    req_xbar: Crossbar,
    l2: CacheLevel,
    dram: Dram,
    resp_holdover: VecDeque<MemResp>,
    /// As `req_pending`, for the `l2.up` queues: set whenever an L2
    /// services or fills (the only producers of `l2.up` traffic).
    resp_pending: u64,
    resp_xbar: Crossbar,
    now: Cycle,
    phase: Phase,
    launches: VecDeque<(Arc<KernelDesc>, u32)>,
    /// Epoch sampler; `None` (the default) leaves the run loop no sample
    /// cadence, so there is no recording overhead at all.
    telemetry: Option<Box<Recorder>>,
    /// Invariant checker and watchdog; `None` in release builds unless
    /// explicitly enabled, `Some` in debug builds always.
    sentinel: Option<Box<SentinelState>>,
    /// Engine selection: when true (the default) the run loop dispatches
    /// only the stages handlers woke (the discrete-event core); when
    /// false it wakes every stage every cycle — the `--no-skip`
    /// validation oracle. See [`ApuSystem::set_time_skip`].
    skip: bool,
    /// The discrete-event scheduler driving the event-core run loop.
    ev: EventCore,
    /// Scratch buffer for telemetry samples, reused across samples.
    frame_values: Vec<u64>,
    /// Per-actor cost accumulators; `None` (the default) keeps the
    /// dispatch loop free of timing reads.
    profile: Option<Box<ProfilerState>>,
}

impl ApuSystem {
    /// Default invariant-sweep cadence for [`ApuSystem::enable_sentinel`]
    /// (cycles between sweeps).
    pub const DEFAULT_CHECK_INTERVAL: u64 = 4096;
    /// Default watchdog window for [`ApuSystem::enable_sentinel`]: cycles
    /// without counter movement before declaring a wedge, far beyond any
    /// legitimate quiet window (the longest is a full DRAM queue
    /// draining, tens of cycles per entry).
    pub const DEFAULT_WATCHDOG: u64 = 1_000_000;

    /// Builds a system ready to execute `workload` under `policy`: an
    /// idle system ([`ApuSystem::new_idle`]) with each of the workload's
    /// launches queued, in order, by [`ApuSystem::enqueue_kernel`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SystemConfig::validate`]); use [`SystemConfig::builder`] or
    /// [`crate::runner::run_one`] for non-panicking validation.
    #[must_use]
    pub fn new(cfg: SystemConfig, policy: PolicyConfig, workload: &Workload) -> ApuSystem {
        let mut sys = Self::new_idle(cfg, policy);
        for (seq, k) in workload.launches.iter().enumerate() {
            sys.enqueue_kernel(Arc::clone(k), seq as u32);
        }
        sys
    }

    /// Builds a system with no kernels queued, starting in the finished
    /// (idle) state — the persistent substrate of a serving scenario.
    ///
    /// Kernels are fed in at runtime with [`ApuSystem::enqueue_kernel`];
    /// between kernels the clock advances with [`ApuSystem::idle_until`]
    /// and policies may be switched with
    /// [`ApuSystem::set_policy_config`]. `now`, statistics and
    /// telemetry are cumulative across every kernel run on the system.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SystemConfig::validate`]).
    #[must_use]
    pub fn new_idle(cfg: SystemConfig, policy: PolicyConfig) -> ApuSystem {
        cfg.validate().expect("invalid system config");
        let n = cfg.n_cus;
        let s = cfg.l2_slices;
        // Per-unit event scheduling (and the crossbar/GPU activity
        // masks) index units by bit in a u64.
        assert!(n <= 64, "at most 64 CUs supported, got {n}");
        assert!(s <= 64, "at most 64 L2 slices supported, got {s}");
        let cap = cfg.queue_capacity;
        // Each crossbar hop's latency is split between the queues on
        // either side of it.
        let hop = |lat: u64| (lat / 2, lat - lat / 2);
        let ((l1_down, l2_in), (l2_up, l1_fill)) = (hop(cfg.lat_l1_l2), hop(cfg.lat_l2_resp));
        let l1_lat = [cfg.lat_cu_l1, l1_down, cfg.lat_l1_resp, l1_fill];
        let l2_lat = [l2_in, cfg.lat_l2_dram, l2_up, cfg.lat_dram_resp];
        let l2_policy = policy.l2_policy(cfg.row_map());

        ApuSystem {
            gpu: Gpu::new(n, cfg.cu.clone()),
            l1: CacheLevel::new("l1", n, &cfg.l1, &policy.l1_policy(), 0, cap, l1_lat),
            req_pending: 0,
            req_xbar: Crossbar::new(n, s, cfg.xbar_per_output),
            l2: CacheLevel::new("l2", s, &cfg.l2, &l2_policy, 1000, cap, l2_lat),
            dram: Dram::new(cfg.dram.clone()),
            resp_holdover: VecDeque::new(),
            resp_pending: 0,
            resp_xbar: Crossbar::new(s, n, cfg.xbar_per_output),
            now: Cycle::ZERO,
            phase: Phase::Finished,
            launches: VecDeque::new(),
            cfg,
            telemetry: None,
            // Debug (and therefore CI-test) builds always run checked;
            // release runs opt in via `enable_sentinel`.
            sentinel: cfg!(debug_assertions).then(|| {
                Box::new(SentinelState::new(
                    Self::DEFAULT_CHECK_INTERVAL,
                    Self::DEFAULT_WATCHDOG,
                ))
            }),
            skip: true,
            ev: EventCore::new(n, s),
            frame_values: Vec::new(),
            profile: None,
        }
    }

    /// Selects the execution engine for
    /// [`ApuSystem::run_to_completion`] and [`ApuSystem::idle_until`]:
    /// the discrete-event core when enabled (the default), the per-cycle
    /// `--no-skip` validation oracle when disabled.
    ///
    /// Both run the same loop and the same stage handlers; the oracle
    /// only adds a wake of every stage for every cycle, so it depends on
    /// no wake edge. The two engines are bit-identical: every actor in
    /// the event core dispatches on every cycle its stage would do work,
    /// in the same intra-cycle order, and telemetry samples, sentinel
    /// checks and the cycle budget keep their own schedule in both.
    /// Disabling the event core therefore only trades away wall-clock
    /// speed; it exists for equivalence testing and for debugging the
    /// event core itself.
    pub fn set_time_skip(&mut self, enabled: bool) {
        self.skip = enabled;
    }

    /// Whether the discrete-event core is enabled.
    #[must_use]
    pub fn time_skip_enabled(&self) -> bool {
        self.skip
    }

    /// Event-core workload: `(events_dispatched, active_cycles)` —
    /// cumulative actor dispatches and the number of simulated cycles
    /// with at least one dispatch. `events_dispatched / active_cycles`
    /// is the mean events per busy cycle (the per-cycle oracle dispatches
    /// all ten stages every cycle, busy or not); `1 - active_cycles /
    /// now().0` is the fraction of cycles the event core never touched.
    #[must_use]
    pub fn event_stats(&self) -> (u64, u64) {
        (self.ev.events_by_actor.iter().sum(), self.ev.active_cycles)
    }

    /// CU-tick workload beside [`ApuSystem::event_stats`]: `(CU ticks
    /// executed, CU ticks that did nothing)`, cumulative (see
    /// `Gpu::cu_tick_stats`). The phase actor's cost is proportional to
    /// the first number; the second is the part of it that bought
    /// nothing. Host-side counts, identical under both engines.
    #[must_use]
    pub fn cu_tick_stats(&self) -> (u64, u64) {
        self.gpu.cu_tick_stats()
    }

    /// `CacheUnit::service` workload beside [`ApuSystem::cu_tick_stats`],
    /// summed per level as `(L1, L2)`: calls executed, executed calls
    /// that were blocked retries, and blocked retries slept through and
    /// booked in closed form. `blocked + settled` is a function of the
    /// simulated state alone — the blocked retries of the per-cycle
    /// oracle, whose own `settled` is 0; the event core's `blocked` is the
    /// part of them it still pays for. Host-side counts.
    #[must_use]
    pub fn service_stats(&self) -> (ServiceCalls, ServiceCalls) {
        (self.l1.service_calls(), self.l2.service_calls())
    }

    /// Per-actor breakdown of [`ApuSystem::event_stats`]: one
    /// `(stage name, dispatches)` pair per event-core actor, in dispatch
    /// order. The histogram shows where the event core spends its
    /// dispatches — the first place to look when profiling it.
    #[must_use]
    pub fn event_stats_by_actor(&self) -> [(&'static str, u64); N_ACTORS] {
        std::array::from_fn(|a| (ACTOR_NAMES[a], self.ev.events_by_actor[a]))
    }

    /// Turns on the per-actor cost profiler: every event-core dispatch is
    /// timed with a monotonic clock and bracketed with
    /// `miopt_engine::alloc_track` counter reads, attributing wall-clock
    /// nanoseconds and heap allocations to the dispatching actor.
    ///
    /// Allocation attribution requires the process to install a counting
    /// `#[global_allocator]` that reports into `alloc_track` (the
    /// benchmark in `bench/` does); without one the alloc columns read
    /// zero. Both engines run the one instrumented loop, so the
    /// `--no-skip` oracle is profiled too.
    pub fn enable_profiler(&mut self) {
        self.profile = Some(Box::default());
    }

    /// Stops profiling and returns the per-actor breakdown, or `None` if
    /// [`ApuSystem::enable_profiler`] was never called.
    pub fn take_profile(&mut self) -> Option<EventProfile> {
        self.profile.take().map(|p| EventProfile {
            actors: (0..N_ACTORS)
                .map(|a| EventProfileRow {
                    name: ACTOR_NAMES[a],
                    events: p.events[a],
                    nanos: p.nanos[a],
                    allocs: p.allocs[a],
                })
                .collect(),
        })
    }

    /// Turns on telemetry recording, sampling every counter in the system
    /// every `interval` cycles. Must be called before stepping.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero (validated front ends reject this via
    /// [`crate::runner::RunOptions`] before reaching the system).
    pub fn enable_telemetry(&mut self, interval: u64) {
        let mut names = Vec::new();
        for (scope, pairs) in self.scoped_stats() {
            names.extend(pairs.iter().map(|(name, _)| format!("{scope}.{name}")));
        }
        names.extend(
            self.queue_registry()
                .map(|(family, _)| format!("queue.{family}.pushed")),
        );
        let mut rec = Recorder::new(interval, names);
        rec.enter_phase(Self::phase_label(self.phase), self.now.0);
        self.telemetry = Some(Box::new(rec));
    }

    /// Finishes telemetry recording (flushing a final partial epoch up to
    /// the current cycle) and returns the time series, or `None` if
    /// telemetry was never enabled.
    pub fn take_telemetry(&mut self) -> Option<TelemetryRun> {
        self.telemetry.as_ref()?;
        self.record_sample();
        self.telemetry.take().map(|rec| rec.into_run(self.now.0))
    }

    /// Every component's counters under its registry scope, in the one
    /// registry order: gpu, l1, l2, dram, noc; the queue families'
    /// `queue.*.pushed` follow in [`ApuSystem::queue_registry`] order.
    fn scoped_stats(&self) -> [(&'static str, Vec<(&'static str, u64)>); 6] {
        [
            ("gpu", self.gpu.stats().stat_pairs()),
            ("l1", self.l1.stats().stat_pairs()),
            ("l2", self.l2.stats().stat_pairs()),
            ("dram", self.dram.stats().stat_pairs()),
            ("noc.req", self.req_xbar.stats().stat_pairs()),
            ("noc.resp", self.resp_xbar.stats().stat_pairs()),
        ]
    }

    /// Appends every registered counter's cumulative value to `values`,
    /// laid out like the names [`ApuSystem::enable_telemetry`] built.
    fn sample_into(&self, values: &mut Vec<u64>) {
        for (_, pairs) in self.scoped_stats() {
            values.extend(pairs.iter().map(|&(_, v)| v));
        }
        for (_, family) in self.queue_registry() {
            values.push(family.queues().map(|q| q.pushes()).sum());
        }
    }

    /// The queue registry: every queue family of the hierarchy with its
    /// name, in the one order telemetry, the sentinel, stall diagnostics
    /// and the progress fingerprint share.
    fn queue_registry(&self) -> [(&'static str, Family<'_>); 8] {
        use Family::{Req, Resp};
        let (l1, l2) = (&self.l1, &self.l2);
        [
            ("l1_in", Req(&l1.input)),
            ("l1_down", Req(&l1.down)),
            ("l2_in", Req(&l2.input)),
            ("l2_down", Req(&l2.down)),
            ("dram_resp", Resp(&l2.fill_in)),
            ("l2_up", Resp(&l2.up)),
            ("l1_fill_in", Resp(&l1.fill_in)),
            ("l1_up", Resp(&l1.up)),
        ]
    }

    /// Span name for a phase in the recorded trace.
    fn phase_label(phase: Phase) -> &'static str {
        match phase {
            Phase::Launching { .. } => "launch",
            Phase::Running => "run",
            Phase::DrainKernel => "drain_kernel",
            Phase::Flushing => "flush",
            Phase::DrainFlush => "drain_flush",
            Phase::Finished => "finished",
        }
    }

    /// Turns on invariant checking and the forward-progress watchdog for
    /// [`ApuSystem::run_to_completion`]: invariants are swept every
    /// `check_interval` cycles, and a run with no counter movement for
    /// `watchdog_cycles` cycles halts with
    /// [`StallReason::NoForwardProgress`] (`watchdog_cycles == 0`
    /// disables the watchdog). Debug builds run with both enabled at
    /// default cadence from construction.
    ///
    /// # Panics
    ///
    /// Panics if `check_interval` is zero.
    pub fn enable_sentinel(&mut self, check_interval: u64, watchdog_cycles: u64) {
        self.sentinel = Some(Box::new(SentinelState::new(
            check_interval,
            watchdog_cycles,
        )));
    }

    /// Whether invariant checking is active (always true in debug
    /// builds).
    #[must_use]
    pub fn sentinel_enabled(&self) -> bool {
        self.sentinel.is_some()
    }

    /// Sweeps every component's conservation invariants right now and
    /// returns the violations found (empty on a healthy system). Works
    /// whether or not the sentinel is enabled; enabling only adds the
    /// periodic sweep inside [`ApuSystem::run_to_completion`].
    #[must_use]
    pub fn check_invariants_now(&self) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        self.gpu.check_invariants("gpu", &mut out);
        self.gpu
            .check_blocked_cu_wake(self.now, &self.l1.input, "gpu", &mut out);
        for level in [&self.l1, &self.l2] {
            for (i, c) in level.units.iter().enumerate() {
                c.check_invariants(&level.unit_name(i), &mut out);
            }
        }
        self.check_blocked_unit_wake(&mut out);
        self.check_unit_wake_mirrored(&mut out);
        self.dram.check_invariants("dram", &mut out);
        self.req_xbar.check_invariants("noc.req", &mut out);
        self.resp_xbar.check_invariants("noc.resp", &mut out);
        for (name, family) in self.queue_registry() {
            for (i, q) in family.queues().enumerate() {
                q.check_invariants(&format!("queue.{name}[{i}]"), &mut out);
            }
        }
        // System-level: the DRAM response holdover is bounded by
        // construction (`ev_dram` stops filling at 4).
        if self.resp_holdover.len() > 4 {
            out.push(InvariantViolation {
                component: "system".to_string(),
                invariant: "holdover_bound",
                detail: format!("{} held-over responses > bound 4", self.resp_holdover.len()),
            });
        }
        out
    }

    /// The `blocked_unit_wake` invariant of both cache levels, which
    /// needs each unit's queues, the sleep mask and the unit wheel and so
    /// lives here rather than in `impl Sentinel for CacheUnit`: the mask
    /// must mark exactly the sleeping units, and no sleeper may be
    /// stranded (`CacheUnit::blocked_wake_violation`).
    fn check_blocked_unit_wake(&self, out: &mut Vec<InvariantViolation>) {
        for (level, actor) in [(&self.l1, A_L1_SERVICE), (&self.l2, A_L2_SERVICE)] {
            for (i, c) in level.units.iter().enumerate() {
                let marked = level.is_asleep(i);
                let detail = if marked != c.blocked_since().is_some() {
                    Some(format!(
                        "sleep mask bit is {marked} but the unit's blockage is {:?}",
                        c.blocked_since()
                    ))
                } else {
                    let pending = self.ev.unit_wake_pending(actor, self.now, i);
                    let (input, down, up) = (&level.input[i], &level.down[i], &level.up[i]);
                    c.blocked_wake_violation(self.now, input, down, up, pending)
                };
                if let Some(detail) = detail {
                    out.push(InvariantViolation {
                        component: level.unit_name(i),
                        invariant: "blocked_unit_wake",
                        detail,
                    });
                }
            }
        }
    }

    /// The `unit_wake_mirrored` invariant of the event core: every cycle
    /// a unit wheel holds an entry at also holds the actor's bit in the
    /// actor wheel — or, for the cycle being dispatched, in `due` — so
    /// that no unit wake is stranded where no dispatch will take it.
    fn check_unit_wake_mirrored(&self, out: &mut Vec<InvariantViolation>) {
        for (actor, &w) in UNIT_WHEEL.iter().enumerate() {
            if w == NO_WHEEL {
                continue;
            }
            let level = if actor < A_RESP_XBAR { "l2" } else { "l1" };
            for (at, units) in self.ev.units[w].entries() {
                let mut actors = self.ev.wheel.pending_at(at);
                if at == self.ev.now {
                    actors |= self.ev.due;
                }
                if actors >> actor & 1 != 0 {
                    continue;
                }
                for unit in bits(units) {
                    out.push(InvariantViolation {
                        component: format!("{level}[{unit}]"),
                        invariant: "unit_wake_mirrored",
                        detail: format!(
                            "`{}` wake at {at} with no actor wake there",
                            ACTOR_NAMES[actor]
                        ),
                    });
                }
            }
        }
    }

    /// A fingerprint of every progress-indicating counter: if two
    /// successive fingerprints match, nothing retired, moved through a
    /// queue, or touched DRAM in between.
    fn progress_fingerprint(&self) -> u64 {
        let mut h = miopt_engine::hash::Fnv1a::new();
        let mut mix = |v: u64| h.write_u64(v);
        mix(self.launches.len() as u64);
        mix(match self.phase {
            Phase::Launching { .. } => 0,
            Phase::Running => 1,
            Phase::DrainKernel => 2,
            Phase::Flushing => 3,
            Phase::DrainFlush => 4,
            Phase::Finished => 5,
        });
        for (name, value) in self.gpu.stats().stat_pairs() {
            mix(name.len() as u64);
            mix(value);
        }
        for (name, value) in self.dram.stats().stat_pairs() {
            mix(name.len() as u64);
            mix(value);
        }
        // A blocked unit books its retries (`CacheStats::retry_counters`)
        // without consuming anything, so they are not progress. Counters
        // only grow: the sum of the others moves iff one of them does.
        for c in self.l1.units.iter().chain(&self.l2.units) {
            let s = c.stats();
            let all: u64 = s.stat_pairs().iter().map(|&(_, v)| v).sum();
            mix(all - s.retry_counters().iter().sum::<u64>());
        }
        for (_, family) in self.queue_registry() {
            family.queues().for_each(|q| mix(q.pushes()));
        }
        h.finish()
    }

    /// Runs the sentinel check due at `now` (the sentinel must be
    /// enabled); returns why the run must halt, if it must.
    fn sentinel_poll(&mut self) -> Option<StallReason> {
        self.settle_caches();
        if !self.check_invariants_now().is_empty() {
            return Some(StallReason::InvariantViolation);
        }
        let fingerprint = self.progress_fingerprint();
        // The launch phase idles by design (host-side overhead), so it is
        // exempt from the watchdog; every other phase moves counters.
        let launching = matches!(self.phase, Phase::Launching { .. });
        let now = self.now;
        let s = self.sentinel.as_deref_mut().expect("sentinel enabled");
        s.next_check = now + s.check_interval;
        if fingerprint != s.last_fingerprint || launching {
            s.last_fingerprint = fingerprint;
            s.stable_since = now;
            return None;
        }
        (s.watchdog_cycles > 0 && now.since(s.stable_since) >= s.watchdog_cycles)
            .then_some(StallReason::NoForwardProgress)
    }

    /// Captures the halted system into a [`StallDiagnostic`].
    fn stall_error(&mut self, budget: u64, reason: StallReason) -> Box<StallDiagnostic> {
        self.settle_caches();
        let mut queues = Vec::new();
        let mut oldest: Option<(Cycle, String)> = None;
        for (name, family) in self.queue_registry() {
            for (i, q) in family.queues().enumerate() {
                if q.occupancy() == 0 {
                    continue;
                }
                let queue = format!("queue.{name}[{i}]");
                if let Some(req) = q.oldest() {
                    if oldest.as_ref().is_none_or(|(c, _)| req.issue_cycle < *c) {
                        oldest = Some((req.issue_cycle, format!("{queue}: {req:?}")));
                    }
                }
                queues.push((queue, q.occupancy()));
            }
        }
        let (mut mshrs, mut blocked_units) = (Vec::new(), Vec::new());
        for level in [&self.l1, &self.l2] {
            level.stall_lists(&mut mshrs, &mut blocked_units);
        }
        let wavefronts = self
            .gpu
            .wavefront_summary()
            .into_iter()
            .map(|(cu, active, loads, pending)| {
                format!(
                    "cu[{cu}]: {active} resident, {loads} loads outstanding, \
                     {pending} accesses unissued"
                )
            })
            .collect();
        let diagnostic = Box::new(StallDiagnostic {
            cycle: self.now.0,
            phase: Self::phase_label(self.phase),
            reason,
            budget,
            oldest_request: oldest.map(|(_, s)| s),
            queues,
            mshrs,
            wavefronts,
            blocked_units,
            violations: self.check_invariants_now(),
        });
        if let Some(rec) = self.telemetry.as_deref_mut() {
            rec.instant(format!("sentinel:{reason}"), self.now.0);
        }
        diagnostic
    }

    /// Fault-injection hook (sentinel validation only): leaks a phantom
    /// MSHR entry in CU `cu`'s L1. With `allocating == true` the entry is
    /// structurally malformed and trips the `mshr_reservation` invariant
    /// at the next sweep; with `false` it is structurally plausible but
    /// never completes, wedging the drain for the watchdog to catch.
    pub fn inject_l1_mshr_leak(&mut self, cu: usize, line: LineAddr, allocating: bool) {
        self.l1.units[cu].inject_mshr_leak(line, allocating);
    }

    /// Fault-injection hook (sentinel validation only): drops one
    /// flow-control credit from CU `cu`'s L1 input queue, tripping the
    /// `credit_conservation` invariant at the next sweep.
    pub fn inject_queue_credit_loss(&mut self, cu: usize) {
        self.l1.input[cu].inject_credit_loss();
    }

    /// The current simulated cycle.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Whether every launch has completed (including its release flush).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Finished
    }

    /// Queues a kernel launch. `seq` tags the launch in telemetry
    /// (`kernel:{name}#{seq}` instants); serving scenarios use a global
    /// request sequence number.
    ///
    /// On an idle (finished) system the launch phase begins immediately:
    /// the kernel starts executing `launch_overhead` cycles from `now`
    /// once the system is driven again by
    /// [`ApuSystem::run_to_completion`].
    pub fn enqueue_kernel(&mut self, desc: Arc<KernelDesc>, seq: u32) {
        self.launches.push_back((desc, seq));
        if self.phase == Phase::Finished {
            self.phase = Phase::Launching {
                until: self.now + self.cfg.launch_overhead,
            };
            if let Some(rec) = self.telemetry.as_deref_mut() {
                rec.enter_phase(Self::phase_label(self.phase), self.now.0);
            }
        }
    }

    /// Number of queued launches not yet started.
    #[must_use]
    pub fn pending_launches(&self) -> usize {
        self.launches.len()
    }

    /// Advances an idle (finished) system's clock to `target` without
    /// running anything — the gap between request arrivals in a serving
    /// scenario.
    ///
    /// Every stage is a no-op on an idle system, so neither engine runs
    /// one: the clock steps from one telemetry sample due in
    /// `(now, target]` to the next, taking each, and lands on `target`. A
    /// `target` at or before `now` is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if the system is not idle ([`ApuSystem::is_done`]).
    pub fn idle_until(&mut self, target: Cycle) {
        assert!(self.is_done(), "idle_until on a busy system");
        while let Some(at) = self.next_sample(self.now).filter(|&at| at <= target) {
            self.now = at;
            self.record_sample();
        }
        self.now = self.now.max(target);
    }

    /// Switches every L1 and L2 slice to `policy`'s level policies, with
    /// an optional L2 way partition — the per-tenant policy (and QoS
    /// way-partition) switch at a kernel boundary in multi-tenant
    /// serving.
    ///
    /// Legal only on an idle system: at that point every cache has been
    /// drained, flushed, and flash self-invalidated, so the switch
    /// cannot strand dirty or busy lines. Lines installed under an
    /// earlier partition would still be found by probes (allocation is
    /// restricted, lookup is not), but after self-invalidation there are
    /// none.
    ///
    /// # Panics
    ///
    /// Panics if the system is not idle ([`ApuSystem::is_done`]), or if
    /// a policy is invalid for the cache geometry (see
    /// [`CacheUnit::set_policy`]).
    pub fn set_policy_config(&mut self, policy: &PolicyConfig, l2_partition: Option<WayRange>) {
        assert!(
            self.is_done(),
            "cache policies can only change at an idle kernel boundary"
        );
        let mut l2 = policy.l2_policy(self.cfg.row_map());
        l2.partition = l2_partition;
        self.l1.set_policy(&policy.l1_policy());
        self.l2.set_policy(&l2);
    }

    /// Cumulative crossbar transfer counts `(request, response)`, for
    /// per-tenant NoC bandwidth attribution in serving scenarios (delta
    /// across a kernel = that kernel's NoC traffic).
    #[must_use]
    pub fn noc_transfers(&self) -> (u64, u64) {
        (
            self.req_xbar.stats().moved.get(),
            self.resp_xbar.stats().moved.get(),
        )
    }

    /// Runs until done.
    ///
    /// # Errors
    ///
    /// Returns the halted system's [`StallDiagnostic`] if it has not
    /// finished within `max_cycles`, or — with the sentinel enabled — as
    /// soon as an invariant check fails or the watchdog detects a wedge.
    pub fn run_to_completion(&mut self, max_cycles: u64) -> Result<Metrics, Box<StallDiagnostic>> {
        if !self.is_done() && self.now.0 >= max_cycles {
            return Err(self.stall_error(max_cycles, StallReason::CycleBudget));
        }
        if let Some(reason) = self.run_events(Cycle(max_cycles)) {
            return Err(self.stall_error(max_cycles, reason));
        }
        // Final sweep at completion: quiescence invariants (every issued
        // request retired, MSHRs empty, queues drained) must hold.
        if self.sentinel.is_some() && !self.check_invariants_now().is_empty() {
            return Err(self.stall_error(max_cycles, StallReason::InvariantViolation));
        }
        self.settle_caches();
        Ok(self.metrics())
    }

    /// The one run loop of both engines. Each step pops the earliest of
    /// three cycles — the wheel's next, the next telemetry sample and the
    /// next sentinel check — and at it takes the sample, runs the check,
    /// then dispatches the due actors in priority order, each handler
    /// rescheduling its own wakeups. Under the event core a cycle with no
    /// events costs nothing; the oracle wakes every stage for the next
    /// cycle after each one.
    ///
    /// Run entry is one oracle cycle at `now`: every stage runs on it — a
    /// stage with nothing to do is a no-op — and its handler reschedules
    /// itself from the state it finds, which is all the event core needs
    /// to pick up from there.
    ///
    /// Runs until the phase machine finishes. Returns why the run halted
    /// instead: a sentinel finding, or the budget `end`.
    fn run_events(&mut self, end: Cycle) -> Option<StallReason> {
        let t0 = self.now;
        self.ev.reset(t0);
        self.ev.wake_every_stage(t0);
        let mut sample = self.next_sample(t0).unwrap_or(NEVER);
        // A check observes the state a cycle left behind, so the first
        // one of a run comes after the run's first cycle.
        let mut check = self
            .sentinel
            .as_deref()
            .map_or(NEVER, |s| s.next_check.max(t0 + 1));
        let exit = loop {
            if self.is_done() {
                break self.now;
            }
            let wheel = self.ev.wheel.next_cycle().unwrap_or(NEVER);
            let t = wheel.min(sample).min(check);
            // Nothing left to do before `end` (on a busy system only the
            // budget can end such a run, as in no-op cycles): the cycles
            // at or past it stay on the wheel, undispatched.
            if t >= end {
                break end;
            }
            self.now = t;
            if t == sample {
                self.record_sample();
                sample = self.next_sample(t).unwrap_or(NEVER);
            }
            if t == check {
                // A finding halts the run before this cycle's stages, with
                // `now` at the check cycle.
                if let Some(reason) = self.sentinel_poll() {
                    return Some(reason);
                }
                check = self.sentinel.as_deref().map_or(NEVER, |s| s.next_check);
            }
            if t < wheel {
                continue;
            }
            self.ev.now = t;
            self.ev.due = self.ev.wheel.take(t);
            while self.ev.due != 0 {
                let a = self.ev.due.trailing_zeros() as usize;
                self.ev.due &= !(1u64 << a);
                let units = match UNIT_WHEEL[a] {
                    NO_WHEEL => {
                        if self.ev.scheduled[a] != t {
                            continue; // stale wheel entry, superseded by an earlier wake
                        }
                        self.ev.scheduled[a] = NEVER;
                        0
                    }
                    // Mirrored: the actor's bit stands for this one slot.
                    w => match self.ev.units[w].take(t) {
                        0 => continue,
                        units => units,
                    },
                };
                self.ev.current = a;
                self.ev.events_by_actor[a] += 1;
                if self.profile.is_some() {
                    let clock = std::time::Instant::now();
                    let allocs_before = miopt_engine::alloc_track::count();
                    self.dispatch(a, t, units);
                    let p = self.profile.as_deref_mut().expect("checked above");
                    p.events[a] += 1;
                    p.nanos[a] += u64::try_from(clock.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    p.allocs[a] += miopt_engine::alloc_track::count().saturating_sub(allocs_before);
                } else {
                    self.dispatch(a, t, units);
                }
            }
            self.ev.current = N_ACTORS;
            self.ev.active_cycles += 1;
            self.now = t + 1;
            if !self.skip {
                self.ev.wake_every_stage(self.now);
            }
        };
        // Leaving at `exit` (done or budget): the clock reaches it and the
        // sample due there is taken, so a run re-entered at `exit` cannot
        // lose it.
        self.now = exit;
        if sample == exit {
            self.record_sample();
        }
        if self.is_done() {
            return None;
        }
        // The budget: a check due at it still runs, and its finding wins.
        let finding = if check == exit {
            self.sentinel_poll()
        } else {
            None
        };
        Some(finding.unwrap_or(StallReason::CycleBudget))
    }

    /// The first telemetry sample due after `cycle`; `None` when
    /// telemetry is off.
    fn next_sample(&self, cycle: Cycle) -> Option<Cycle> {
        let rec = self.telemetry.as_deref()?;
        Some(Cycle(rec.next_due(cycle.0)))
    }

    /// Dispatches one actor at cycle `now`; a replicated-unit actor
    /// visits the `units` due then.
    fn dispatch(&mut self, actor: usize, now: Cycle, units: u64) {
        match actor {
            A_DRAM => self.ev_dram(now),
            A_L2_FILL => self.ev_l2_fill(now, units),
            A_L2_SERVICE => self.ev_l2_service(now, units),
            A_L2_TO_DRAM => self.ev_l2_to_dram(now, units),
            A_RESP_XBAR => self.ev_resp_xbar(now),
            A_L1_FILL => self.ev_l1_fill(now, units),
            A_L1_SERVICE => self.ev_l1_service(now, units),
            A_REQ_XBAR => self.ev_req_xbar(now),
            A_GPU_RESP => self.ev_gpu_resp(now, units),
            _ => self.ev_phase(now),
        }
        // A drain ends on the cycle the hierarchy empties, which is
        // always a cycle some memory actor dispatched on — piggyback the
        // phase machine's busyness check onto every such cycle rather
        // than polling it.
        if actor < A_PHASE && matches!(self.phase, Phase::DrainKernel | Phase::DrainFlush) {
            self.ev.wake(A_PHASE, now);
        }
    }

    /// Actor 0 (stages 1-2): DRAM scheduling, then responses toward their
    /// L2 slice, held-over ones first.
    ///
    /// DRAM reschedules exactly, from `Dram::next_event` — the minimum of
    /// each channel's cached next action and oldest response, with only
    /// the channels pushed to since their last tick recomputed — plus
    /// `now + 1` while a response is held over for a full slice queue.
    /// The tick itself visits only the channels due or pushed to. The L2
    /// fill wakes are per-slice: only slices that received a response
    /// this dispatch are scheduled.
    fn ev_dram(&mut self, now: Cycle) {
        self.dram.tick(now);
        let (cfg, fill_in) = (&self.cfg, &mut self.l2.fill_in);
        let mut pushed = 0u64;
        let mut deliver = |resp: MemResp| {
            let slice = cfg.l2_slice_of(resp.line);
            let r = fill_in[slice].push(now, resp);
            pushed |= u64::from(r.is_ok()) << slice;
            r.map_err(|full| full.0)
        };
        while let Some(resp) = self.resp_holdover.pop_front() {
            if let Err(resp) = deliver(resp) {
                self.resp_holdover.push_front(resp);
                break;
            }
        }
        let mut cursor = 0;
        while self.resp_holdover.len() < 4 {
            let Some(resp) = self.dram.pop_response_from(now, &mut cursor) else {
                break;
            };
            if let Err(resp) = deliver(resp) {
                self.resp_holdover.push_back(resp);
            }
        }
        for s in bits(pushed) {
            if let Some(at) = self.l2.fill_in[s].next_ready() {
                self.ev.wake_unit(A_L2_FILL, at, s);
            }
        }
        // Nothing comes before `now + 1`, so a holdover needs no walk.
        if !self.resp_holdover.is_empty() {
            self.ev.wake(A_DRAM, now + 1);
        } else if let Some(at) = self.dram.next_event(now + 1) {
            self.ev.wake(A_DRAM, at);
        }
    }

    /// Actor 1 (stage 3): up to two L2 fills per due slice from its DRAM
    /// response queue, each slice rescheduled exactly from that queue.
    fn ev_l2_fill(&mut self, now: Cycle, m: u64) {
        for s in bits(m) {
            if self.l2.fill(now, s) {
                self.resp_pending |= 1 << s;
                // A fill can free the cache resources a sleeping slice
                // blocked on; its service stage is still to run this
                // cycle, as in the per-cycle order. An awake slice with
                // work has a wake pending already, and a fill gives none
                // to a slice without. A fill can also produce an upward
                // response.
                if self.l2.is_asleep(s) {
                    self.ev.wake_unit(A_L2_SERVICE, now, s);
                }
                if let Some(at) = self.l2.up[s].next_ready() {
                    self.ev.wake(A_RESP_XBAR, at);
                }
            }
            if let Some(at) = self.l2.fill_in[s].next_ready() {
                self.ev.wake_unit(A_L2_FILL, at, s);
            }
        }
    }

    /// Actor 2 (stage 4): L2 access servicing, per due slice.
    fn ev_l2_service(&mut self, now: Cycle, m: u64) {
        for s in bits(m) {
            if self.l2.service(now, s) {
                self.resp_pending |= 1 << s;
                // Downstream wakes are needed only when something moved;
                // earlier pushes already scheduled their consumers.
                if let Some(at) = self.l2.down[s].next_ready() {
                    self.ev.wake_unit(A_L2_TO_DRAM, at, s);
                }
                if let Some(at) = self.l2.up[s].next_ready() {
                    self.ev.wake(A_RESP_XBAR, at);
                }
            }
            self.ev.rewake_service(A_L2_SERVICE, &self.l2, now, s);
        }
    }

    /// Credit edge: a queue that each of `sleepers` (units of `actor`,
    /// all asleep) pushes into was popped this cycle, after the units' own
    /// stage — the one change to a sleeping unit's view that no other wake
    /// carries, visible to it from the next cycle on.
    ///
    /// Kept out of line: four handlers share it, and on a machine that is
    /// not saturated none of them ever has a sleeper to wake.
    #[inline(never)]
    fn wake_sleepers(&mut self, actor: usize, now: Cycle, sleepers: u64) {
        for unit in bits(sleepers) {
            self.ev.wake_unit(actor, now + 1, unit);
        }
    }

    /// Actor 3 (stage 5): per due slice, its writeback/miss queue drains
    /// into DRAM while DRAM accepts.
    fn ev_l2_to_dram(&mut self, now: Cycle, m: u64) {
        let mut popped = 0u64;
        for s in bits(m) {
            let q = &mut self.l2.down[s];
            // A full channel refuses the head, which stays queued.
            while let Some(&req) = q.ready_front(now) {
                if self.dram.push(now, req).is_err() {
                    break;
                }
                q.pop_ready(now);
                popped |= 1 << s;
            }
            if let Some(at) = q.next_ready() {
                self.ev.wake_unit(A_L2_TO_DRAM, at, s);
            }
        }
        let sleepers = popped & self.l2.asleep;
        if sleepers != 0 {
            self.wake_sleepers(A_L2_SERVICE, now, sleepers);
        }
        if popped != 0 {
            // A request entered DRAM: waking it at `now + 1` is
            // conservative-early. DRAM's own dispatch then visits only the
            // channels pushed to (and any due), and reschedules exactly.
            self.ev.wake(A_DRAM, now + 1);
        }
    }

    /// Actor 4 (stage 6): response crossbar, L2 slices toward the L1s.
    /// Wakes only the L1 fill units whose queues received a response.
    fn ev_resp_xbar(&mut self, now: Cycle) {
        let (_, dsts) = self.resp_xbar.tick_tracked_masked(
            now,
            &mut self.resp_pending,
            &mut self.l2.up,
            &mut self.l1.fill_in,
            |r| match r.origin {
                miopt_engine::Origin::Wavefront { cu, .. } => cu as usize,
                miopt_engine::Origin::Internal => 0,
            },
        );
        for i in bits(dsts) {
            if let Some(at) = self.l1.fill_in[i].next_ready() {
                self.ev.wake_unit(A_L1_FILL, at, i);
            }
        }
        let sleepers = self.resp_xbar.popped_inputs() & self.l2.asleep;
        if sleepers != 0 {
            self.wake_sleepers(A_L2_SERVICE, now, sleepers);
        }
        if let Some(at) = earliest_head(self.resp_pending, &self.l2.up, now + 1) {
            self.ev.wake(A_RESP_XBAR, at);
        }
    }

    /// Actor 5 (stage 7): L1 fills from the response crossbar, per due
    /// CU; as [`ApuSystem::ev_l2_fill`].
    fn ev_l1_fill(&mut self, now: Cycle, m: u64) {
        for i in bits(m) {
            if self.l1.fill(now, i) {
                if self.l1.is_asleep(i) {
                    self.ev.wake_unit(A_L1_SERVICE, now, i);
                }
                if let Some(at) = self.l1.up[i].next_ready() {
                    self.ev.wake_unit(A_GPU_RESP, at, i);
                }
            }
            if let Some(at) = self.l1.fill_in[i].next_ready() {
                self.ev.wake_unit(A_L1_FILL, at, i);
            }
        }
    }

    /// Actor 6 (stage 8): L1 access servicing, per due CU.
    fn ev_l1_service(&mut self, now: Cycle, m: u64) {
        for i in bits(m) {
            if self.l1.service(now, i) {
                self.req_pending |= 1 << i;
                if let Some(at) = self.l1.down[i].next_ready() {
                    self.ev.wake(A_REQ_XBAR, at);
                }
                if let Some(at) = self.l1.up[i].next_ready() {
                    self.ev.wake_unit(A_GPU_RESP, at, i);
                }
            }
            self.ev.rewake_service(A_L1_SERVICE, &self.l1, now, i);
            if self.gpu.cu_mem_blocked(i) && self.l1.input[i].can_push() {
                // L1 service -> phase (credit): the CU sleeps on L1
                // backpressure while its queue has room, the one wake the
                // GPU cannot schedule for itself because this stage pops
                // the queue. The phase machine is a later stage of this
                // cycle, as in the per-cycle order, where
                // `Gpu::tick_tracked` sees the room for itself.
                self.ev.wake(A_PHASE, now);
            }
        }
    }

    /// Actor 7 (stage 9): request crossbar, L1s toward the L2 slices.
    /// Wakes only the L2 service slices whose input queues received a
    /// request.
    fn ev_req_xbar(&mut self, now: Cycle) {
        let cfg = &self.cfg;
        let (_, dsts) = self.req_xbar.tick_tracked_masked(
            now,
            &mut self.req_pending,
            &mut self.l1.down,
            &mut self.l2.input,
            |r| cfg.l2_slice_of(r.line),
        );
        for s in bits(dsts) {
            if let Some(at) = self.l2.input[s].next_ready() {
                self.ev.wake_unit(A_L2_SERVICE, at, s);
            }
        }
        let sleepers = self.req_xbar.popped_inputs() & self.l1.asleep;
        if sleepers != 0 {
            self.wake_sleepers(A_L1_SERVICE, now, sleepers);
        }
        if let Some(at) = earliest_head(self.req_pending, &self.l1.down, now + 1) {
            self.ev.wake(A_REQ_XBAR, at);
        }
    }

    /// Actor 8 (stage 10): response delivery to the GPU, per due CU.
    fn ev_gpu_resp(&mut self, now: Cycle, m: u64) {
        let (mut popped, mut woke) = (0u64, false);
        for i in bits(m) {
            while let Some(resp) = self.l1.up[i].pop_ready(now) {
                woke |= self.gpu.on_response(resp);
                popped |= 1 << i;
            }
            if let Some(at) = self.l1.up[i].next_ready() {
                self.ev.wake_unit(A_GPU_RESP, at, i);
            }
        }
        let sleepers = popped & self.l1.asleep;
        if sleepers != 0 {
            self.wake_sleepers(A_L1_SERVICE, now, sleepers);
        }
        if woke {
            // GPU resp -> phase: the phase machine runs after this stage
            // within the cycle. A response that released a waitcnt can
            // let its CU act at once, one that retired a wavefront can
            // free a slot for a work-group or end the kernel; any other
            // leaves every CU's schedule as it was.
            self.ev.wake(A_PHASE, now);
        }
    }

    /// Actor 9: the phase machine, and the only actor that reschedules
    /// across phase transitions.
    fn ev_phase(&mut self, now: Cycle) {
        let before = self.phase;
        let (acted, issued) = self.advance_phase(now);
        let after = self.phase;
        if before != after && after != Phase::Finished {
            // The final phase's span stays open; `take_telemetry` closes
            // it at the run's last cycle so spans tile `[0, cycles]`.
            if let Some(rec) = self.telemetry.as_deref_mut() {
                rec.enter_phase(Self::phase_label(after), now.0);
            }
        }
        match before {
            // The GPU may have issued loads into the L1 input queues
            // (including on the tick that finished the kernel); only the
            // CUs that acted can have pushed.
            Phase::Running if acted => {
                for i in bits(issued) {
                    if let Some(at) = self.l1.input[i].next_ready() {
                        self.ev.wake_unit(A_L1_SERVICE, at, i);
                    }
                }
            }
            // A flush tick pushes writebacks toward DRAM.
            Phase::Flushing => {
                for s in 0..self.l2.down.len() {
                    if let Some(at) = self.l2.down[s].next_ready() {
                        self.ev.wake_unit(A_L2_TO_DRAM, at, s);
                    }
                }
            }
            _ => {}
        }
        if before != after {
            if after != Phase::Finished {
                self.ev.wake(A_PHASE, now + 1);
            }
            return;
        }
        match after {
            Phase::Launching { until } => self.ev.wake(A_PHASE, until.max(now + 1)),
            Phase::Running => {
                if acted {
                    self.ev.wake(A_PHASE, now + 1);
                } else if let Some(at) = self.gpu.next_event(now + 1) {
                    self.ev.wake(A_PHASE, at);
                }
                // Neither branch scheduling anything means no SIMD
                // timer is pending: every CU sleeps on a load response
                // (actor 8 wakes the phase machine when one releases a
                // waitcnt or retires a wavefront) or
                // on L1 backpressure (actor 6 wakes it when the queue it
                // pops for a memory-blocked CU has room again).
            }
            Phase::Flushing => self.ev.wake(A_PHASE, now + 1),
            // Busy drains wait for the dispatch piggyback; Finished ends
            // the run.
            Phase::DrainKernel | Phase::DrainFlush | Phase::Finished => {}
        }
    }

    /// A snapshot of all statistics at the current cycle.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        Metrics::new(
            &self.cfg,
            self.now.0,
            self.gpu.stats(),
            self.dram.stats().clone(),
            self.l1.stats(),
            self.l2.stats(),
        )
    }

    /// Records one telemetry sample at the current cycle (the due check
    /// is the caller's; telemetry must be enabled): values only, into the
    /// scratch buffer reused across samples.
    fn record_sample(&mut self) {
        self.settle_caches();
        let mut values = std::mem::take(&mut self.frame_values);
        values.clear();
        self.sample_into(&mut values);
        self.telemetry
            .as_deref_mut()
            .expect("telemetry enabled")
            .record(self.now.0, &values);
        self.frame_values = values;
    }

    /// Books, on every sleeping cache unit, the blocked retries of the
    /// cycles before `now` it was not called on (`CacheUnit::settle`), so
    /// cache statistics read what the per-cycle oracle shows at this
    /// cycle. Every reader of them calls this first; under the oracle
    /// itself there is never anything to book.
    fn settle_caches(&mut self) {
        self.l1.settle(self.now);
        self.l2.settle(self.now);
    }

    /// Whether any request or response is anywhere in the hierarchy.
    fn hierarchy_busy(&self) -> bool {
        let queued = |(_, family): (_, Family<'_>)| family.queues().any(|q| q.occupancy() > 0);
        self.queue_registry().into_iter().any(queued)
            || !self.resp_holdover.is_empty()
            || self
                .l1
                .units
                .iter()
                .chain(&self.l2.units)
                .any(CacheUnit::busy)
            || self.dram.busy()
    }

    /// Returns `(acted, issued)`: whether the phase machine did anything
    /// this cycle (ticked the GPU to some effect, made a transition, or
    /// worked on a flush), and — in [`Phase::Running`] — the mask of CUs
    /// that acted (the only ones that can have pushed new L1 requests,
    /// which is what the event core wakes on).
    fn advance_phase(&mut self, now: Cycle) -> (bool, u64) {
        match self.phase {
            Phase::Launching { until } => {
                if now >= until {
                    match self.launches.pop_front() {
                        Some((desc, seq)) => {
                            if let Some(rec) = self.telemetry.as_deref_mut() {
                                rec.instant(format!("kernel:{}#{seq}", desc.name), now.0);
                            }
                            self.gpu.start_kernel(desc, seq);
                            self.phase = Phase::Running;
                        }
                        None => self.phase = Phase::Finished,
                    }
                    (true, 0)
                } else {
                    (false, 0)
                }
            }
            Phase::Running => {
                let (acted, issued) = self.gpu.tick_tracked(now, &mut self.l1.input);
                if self.gpu.kernel_done() {
                    self.phase = Phase::DrainKernel;
                    return (true, issued);
                }
                (acted, issued)
            }
            Phase::DrainKernel => {
                if !self.hierarchy_busy() {
                    for c in &mut self.l2.units {
                        c.start_flush();
                    }
                    self.phase = Phase::Flushing;
                    (true, 0)
                } else {
                    (false, 0)
                }
            }
            Phase::Flushing => {
                let mut done = true;
                for (c, down) in self.l2.units.iter_mut().zip(&mut self.l2.down) {
                    c.flush_tick(now, down);
                    done &= c.flush_done();
                }
                if done {
                    self.phase = Phase::DrainFlush;
                }
                // A flush in progress retries blocked writebacks every
                // cycle; `next_event` pins this phase to `now` anyway.
                (true, 0)
            }
            Phase::DrainFlush => {
                if !self.hierarchy_busy() {
                    // Acquire for the next kernel: flash self-invalidation
                    // of all valid GPU cache data.
                    self.l1.self_invalidate();
                    self.l2.self_invalidate();
                    if let Some(rec) = self.telemetry.as_deref_mut() {
                        rec.instant("self_invalidate", now.0);
                    }
                    self.phase = if self.launches.is_empty() {
                        Phase::Finished
                    } else {
                        Phase::Launching {
                            until: now + self.cfg.launch_overhead,
                        }
                    };
                    (true, 0)
                } else {
                    (false, 0)
                }
            }
            Phase::Finished => (false, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CachePolicy;
    use miopt_workloads::{by_name, SuiteConfig};

    fn run(policy: CachePolicy, name: &str) -> Metrics {
        let w = by_name(&SuiteConfig::quick(), name).unwrap();
        let mut sys = ApuSystem::new(SystemConfig::small_test(), PolicyConfig::of(policy), &w);
        sys.run_to_completion(200_000_000).expect("run finished")
    }

    #[test]
    fn softmax_runs_under_every_policy() {
        for p in CachePolicy::ALL {
            let m = run(p, "FwSoft");
            assert!(m.cycles > 0, "{p}");
            assert!(m.gpu.retired_wavefronts > 0, "{p}");
            assert!(m.dram_accesses() > 0, "{p}");
        }
    }

    #[test]
    fn caching_reduces_dram_traffic_for_rereads() {
        // FwSoft re-reads its tiny input: cached runs must hit DRAM less.
        let unc = run(CachePolicy::Uncached, "FwSoft");
        let r = run(CachePolicy::CacheR, "FwSoft");
        assert!(
            r.dram_accesses() < unc.dram_accesses(),
            "cached {} vs uncached {}",
            r.dram_accesses(),
            unc.dram_accesses()
        );
    }

    #[test]
    fn uncached_counts_no_cache_stalls() {
        let m = run(CachePolicy::Uncached, "FwSoft");
        assert_eq!(m.cache_stalls(), 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(CachePolicy::CacheRW, "FwSoft");
        let b = run(CachePolicy::CacheRW, "FwSoft");
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.dram_accesses(), b.dram_accesses());
        assert_eq!(a.cache_stalls(), b.cache_stalls());
    }

    #[test]
    fn multi_kernel_workload_flushes_between_kernels() {
        let w = by_name(&SuiteConfig::quick(), "FwLSTM").unwrap();
        let mut sys = ApuSystem::new(
            SystemConfig::small_test(),
            PolicyConfig::of(CachePolicy::CacheRW),
            &w,
        );
        let m = sys.run_to_completion(2_000_000_000).expect("finished");
        // 150 launches, each at least the launch overhead apart.
        assert!(m.cycles > 150 * SystemConfig::small_test().launch_overhead);
        assert!(m.l2.self_invalidations.get() > 0 || m.l2.flush_writebacks.get() > 0);
    }

    #[test]
    fn checked_run_with_tight_cadence_completes_quietly() {
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let mut sys = ApuSystem::new(
            SystemConfig::small_test(),
            PolicyConfig::of(CachePolicy::CacheRW),
            &w,
        );
        sys.enable_sentinel(64, 50_000);
        assert!(sys.sentinel_enabled());
        let m = sys.run_to_completion(200_000_000).expect("healthy run");
        assert!(m.cycles > 0);
        assert!(sys.check_invariants_now().is_empty());
    }

    #[test]
    fn sentinel_catches_an_injected_credit_loss() {
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let mut sys = ApuSystem::new(
            SystemConfig::small_test(),
            PolicyConfig::of(CachePolicy::CacheR),
            &w,
        );
        sys.inject_queue_credit_loss(1);
        let vs = sys.check_invariants_now();
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].component, "queue.l1_in[1]");
        assert_eq!(vs[0].invariant, "credit_conservation");
        sys.enable_sentinel(64, 0);
        let err = sys.run_to_completion(200_000_000).expect_err("must halt");
        assert_eq!(err.reason, StallReason::InvariantViolation);
        assert!(err
            .violations
            .iter()
            .any(|v| v.component == "queue.l1_in[1]" && v.invariant == "credit_conservation"));
    }

    #[test]
    fn sentinel_catches_a_leaked_allocating_mshr_entry() {
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let mut sys = ApuSystem::new(
            SystemConfig::small_test(),
            PolicyConfig::of(CachePolicy::CacheR),
            &w,
        );
        sys.inject_l1_mshr_leak(2, miopt_engine::LineAddr(8), true);
        sys.enable_sentinel(64, 0);
        let err = sys.run_to_completion(200_000_000).expect_err("must halt");
        assert_eq!(err.reason, StallReason::InvariantViolation);
        let v = err
            .violations
            .iter()
            .find(|v| v.invariant == "mshr_reservation")
            .expect("reservation violation");
        assert_eq!(v.component, "l1[2]");
        assert!(err.cycle < 200, "caught at the first sweep");
    }

    #[test]
    fn watchdog_reports_a_wedged_drain_with_mshr_contents() {
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let mut sys = ApuSystem::new(
            SystemConfig::small_test(),
            PolicyConfig::of(CachePolicy::CacheR),
            &w,
        );
        // A structurally plausible leak: no invariant trips, but the
        // hierarchy never drains, so only the watchdog can catch it.
        sys.inject_l1_mshr_leak(0, miopt_engine::LineAddr(8), false);
        sys.enable_sentinel(64, 5_000);
        let err = sys.run_to_completion(200_000_000).expect_err("must wedge");
        assert_eq!(err.reason, StallReason::NoForwardProgress);
        assert!(err.violations.is_empty(), "plausible leak");
        let (comp, entries) = err
            .mshrs
            .iter()
            .find(|(c, _)| c == "l1[0]")
            .expect("leaked MSHR in the diagnostic");
        assert_eq!(comp, "l1[0]");
        assert!(entries[0].contains("line 0x8"), "{entries:?}");
        assert!(err
            .to_string()
            .starts_with("no forward progress since cycle "));
        // The budget was nowhere near exhausted: the watchdog fired first.
        assert!(err.cycle < 200_000_000);
    }

    #[test]
    fn watchdog_does_not_count_a_blocked_units_stalls_as_progress() {
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let mut sys = ApuSystem::new(
            SystemConfig::small_test(),
            PolicyConfig::of(CachePolicy::CacheR),
            &w,
        );
        // Enough leaks to fill l1[0]'s MSHR table: the unit blocks on it
        // for good and books a stall on every retry, and nothing else
        // moves.
        for k in 0..8 {
            sys.inject_l1_mshr_leak(0, miopt_engine::LineAddr(1_000_000 + k), false);
        }
        sys.enable_sentinel(64, 5_000);
        let err = sys.run_to_completion(200_000).expect_err("must wedge");
        assert_eq!(err.reason, StallReason::NoForwardProgress);
        assert!(
            err.blocked_units
                .iter()
                .any(|b| b.starts_with("l1[0]: blocked since")),
            "{:?}",
            err.blocked_units
        );
        // One watchdog window after the blockage, not at the budget.
        assert!(err.cycle < 10_000, "{}", err.cycle);
        assert!(sys.metrics().l1.stall_mshr.get() > 0);
    }

    #[test]
    fn time_skipping_is_bit_identical_to_per_cycle_stepping() {
        // The strongest form of the skip-ahead contract: identical
        // metrics AND an identical telemetry stream (every epoch
        // boundary, phase span, and event instant at the same cycle),
        // with the sentinel sweeping at tight cadence in both runs.
        for p in [
            CachePolicy::Uncached,
            CachePolicy::CacheR,
            CachePolicy::CacheRW,
        ] {
            let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
            let mut fast = ApuSystem::new(SystemConfig::small_test(), PolicyConfig::of(p), &w);
            let mut slow = ApuSystem::new(SystemConfig::small_test(), PolicyConfig::of(p), &w);
            slow.set_time_skip(false);
            assert!(fast.time_skip_enabled());
            assert!(!slow.time_skip_enabled());
            for sys in [&mut fast, &mut slow] {
                sys.enable_telemetry(512);
                sys.enable_sentinel(64, 50_000);
            }
            let mf = fast.run_to_completion(200_000_000).expect("skip run");
            let ms = slow.run_to_completion(200_000_000).expect("per-cycle run");
            assert_eq!(mf.cycles, ms.cycles, "{p}");
            assert_eq!(mf.dram_accesses(), ms.dram_accesses(), "{p}");
            assert_eq!(mf.cache_stalls(), ms.cache_stalls(), "{p}");
            assert_eq!(fast.take_telemetry(), slow.take_telemetry(), "{p}");
        }
    }

    /// The phase actor's machine-independent cost on a saturated stream:
    /// the CU ticks executed are a function of the simulated state alone
    /// (same count from either engine, run after run), and few of them
    /// are wasted — a backpressured CU sleeps until its L1 queue returns
    /// a credit; re-ticking it every cycle in between would make the
    /// large majority of this run's ticks no-ops.
    #[test]
    fn cu_ticks_on_a_saturated_stream_are_exact_and_mostly_useful() {
        let w = by_name(&SuiteConfig::quick(), "FwAct").unwrap();
        let run = |skip: bool| {
            let mut sys = ApuSystem::new(
                SystemConfig::paper_table1(),
                PolicyConfig::of(CachePolicy::Uncached),
                &w,
            );
            sys.set_time_skip(skip);
            let m = sys.run_to_completion(200_000_000).expect("run finished");
            (m, sys.cu_tick_stats())
        };
        let (m, (ticks, idle)) = run(true);
        assert!(ticks > 50_000, "{ticks} CU ticks");
        assert!(idle * 4 < ticks, "{idle} of {ticks} CU ticks did nothing");
        assert_eq!(run(true), (m.clone(), (ticks, idle)), "repeats exactly");
        assert_eq!(run(false), (m, (ticks, idle)), "same under the oracle");
    }

    /// The phase and memory actors' cost on a latency-bound multi-kernel
    /// RNN: the CU ticks are a function of the simulated state alone (the
    /// same from either engine, run after run), and under the event core
    /// each actor is dispatched only when it can act — a delivered
    /// response wakes the phase machine only if it released a waitcnt or
    /// retired a wavefront, a fill wakes `service` only on a sleeping
    /// unit, and DRAM and the crossbars reschedule exactly.
    #[test]
    fn rnn_phase_dispatches_follow_work_not_responses() {
        let w = by_name(&SuiteConfig::quick(), "FwGRU").unwrap();
        let run = |skip: bool| {
            let mut sys = ApuSystem::new_idle(
                SystemConfig::small_test(),
                PolicyConfig::of(CachePolicy::Uncached),
            );
            sys.set_time_skip(skip);
            // 30 recurrent steps, after the input projection.
            for (seq, k) in w.launches.iter().enumerate().skip(1).take(30) {
                sys.enqueue_kernel(Arc::clone(k), seq as u32);
            }
            let m = sys.run_to_completion(200_000_000).expect("run finished");
            let by_actor = sys.event_stats_by_actor();
            let dispatches = [
                A_DRAM,
                A_L2_SERVICE,
                A_RESP_XBAR,
                A_L1_SERVICE,
                A_REQ_XBAR,
                A_PHASE,
            ]
            .map(|a| by_actor[a].1);
            (m, sys.cu_tick_stats(), sys.service_stats(), dispatches)
        };
        let (m, ticks, (l1, l2), dispatches) = run(true);
        assert_eq!(ticks, (35_169, 3_569));
        // dram, l2_service, resp_xbar, l1_service, req_xbar, phase. With
        // a fill waking every unit's `service`, DRAM and the crossbars
        // waking themselves at `now + 1` after acting, and the unit wheels
        // re-armed lazily: 50 191, 36 501, 35 132, 36 577, 28 276 and
        // 35 910. With every delivered response dispatching the phase
        // machine, 42 003 phase dispatches. With DRAM's reschedule a
        // conservative walk that named a cycle as soon as a bank's
        // activate ended, even for a prep held back by a window hit,
        // 43 865 DRAM dispatches.
        assert_eq!(dispatches, [43_362, 26_676, 21_690, 26_465, 25_603, 35_756]);
        // Only the calls that were no-ops went: 36 580 L1 and 43 994 L2
        // `service` calls before, the same blocked retries now.
        let calls = |executed, blocked, settled| ServiceCalls {
            executed,
            blocked,
            settled,
        };
        assert_eq!((l1, l2), (calls(26_468, 0, 0), calls(26_929, 1_443, 644)));
        assert_eq!(
            run(true),
            (m.clone(), ticks, (l1, l2), dispatches),
            "repeats exactly"
        );
        let (oracle_m, oracle_ticks, (_, oracle_l2), _) = run(false);
        assert_eq!(
            (oracle_m, oracle_ticks, oracle_l2.blocked),
            (m, ticks, l2.blocked + l2.settled),
            "same under the oracle"
        );
    }

    /// Halting a saturated run mid-kernel and re-entering it rebuilds the
    /// schedule from state alone (run entry's oracle cycle), including the wake of
    /// CUs asleep on L1 backpressure: the resumed run must end exactly
    /// where an uninterrupted one does, under both engines.
    #[test]
    fn saturated_run_resumes_bit_identically_after_a_budget_halt() {
        let w = by_name(&SuiteConfig::quick(), "FwAct").unwrap();
        let fresh = |skip: bool| {
            let mut sys = ApuSystem::new(
                SystemConfig::small_test(),
                PolicyConfig::of(CachePolicy::Uncached),
                &w,
            );
            sys.set_time_skip(skip);
            sys
        };
        let mut whole = fresh(true);
        let want = whole.run_to_completion(200_000_000).expect("run finished");
        let want = (want, whole.cu_tick_stats());
        for skip in [true, false] {
            let mut sys = fresh(skip);
            let mut blocked_at_a_halt = false;
            // Budgets that are not multiples of anything in the machine.
            for budget in [7_001, 7_002, 9_337, 20_011] {
                let err = sys.run_to_completion(budget).expect_err("mid-kernel");
                assert_eq!(err.reason, StallReason::CycleBudget);
                assert_eq!(sys.now(), Cycle(budget));
                blocked_at_a_halt |= (0..sys.l1.input.len()).any(|i| sys.gpu.cu_mem_blocked(i));
            }
            assert!(blocked_at_a_halt, "the halts must catch backpressured CUs");
            let got = sys.run_to_completion(200_000_000).expect("resumed run");
            assert_eq!((got, sys.cu_tick_stats()), want, "skip={skip}");
        }
    }

    /// The cache units' machine-independent cost on a saturated stream:
    /// the blocked `service` retries — the paper's Figure 8 stall cycles
    /// in the making — are a function of the simulated state alone,
    /// whichever engine counts them, and the event core sleeps through
    /// nearly all of them instead of executing one per cycle.
    #[test]
    fn blocked_service_retries_are_exact_and_mostly_slept_through() {
        let w = by_name(&SuiteConfig::quick(), "FwAct").unwrap();
        let run = |skip: bool| {
            let mut sys = ApuSystem::new(
                SystemConfig::paper_table1(),
                PolicyConfig::of(CachePolicy::CacheR),
                &w,
            );
            sys.set_time_skip(skip);
            let m = sys.run_to_completion(200_000_000).expect("run finished");
            (m, sys.service_stats())
        };
        let (m, (l1, l2)) = run(true);
        assert_eq!(run(true), (m.clone(), (l1, l2)), "repeats exactly");
        let (oracle_m, (oracle_l1, oracle_l2)) = run(false);
        assert_eq!(oracle_m, m);
        for (level, event, oracle) in [("l1", l1, oracle_l1), ("l2", l2, oracle_l2)] {
            assert_eq!(oracle.settled, 0, "{level}: the oracle calls every cycle");
            assert_eq!(
                event.blocked + event.settled,
                oracle.blocked,
                "{level}: same retries, executed or slept through"
            );
            assert!(event.executed < oracle.executed, "{level}");
        }
        assert!(oracle_l1.blocked > 100_000, "saturated: {oracle_l1:?}");
        let retries = l1.blocked + l2.blocked + l1.settled + l2.settled;
        assert!(
            (l1.blocked + l2.blocked) * 100 < retries * 15,
            "event core executed {} of {retries} blocked retries",
            l1.blocked + l2.blocked
        );
    }

    /// A run halted *while cache units sleep* must read exactly like the
    /// oracle halted at the same cycle — the stalls of the cycles slept
    /// through are booked before anything looks — and the diagnostic must
    /// say who was asleep. Re-entering then ends where an uninterrupted
    /// run does, under both engines.
    #[test]
    fn budget_halt_while_units_sleep_reads_like_the_oracle() {
        let w = by_name(&SuiteConfig::quick(), "FwAct").unwrap();
        let fresh = |skip: bool| {
            let mut sys = ApuSystem::new(
                SystemConfig::small_test(),
                PolicyConfig::of(CachePolicy::CacheR),
                &w,
            );
            sys.set_time_skip(skip);
            sys
        };
        let want = fresh(true)
            .run_to_completion(200_000_000)
            .expect("run finished");
        let (mut event, mut oracle) = (fresh(true), fresh(false));
        let mut slept_at_a_halt = 0;
        for budget in [7_001, 7_002, 9_337, 20_011] {
            let before = event.service_stats().0.settled;
            let e = event.run_to_completion(budget).expect_err("mid-kernel");
            let o = oracle.run_to_completion(budget).expect_err("mid-kernel");
            assert_eq!(e, o, "same halt, same diagnostic");
            assert_eq!(e.reason, StallReason::CycleBudget);
            assert_eq!(event.metrics(), oracle.metrics(), "budget {budget}");
            assert!(event.check_invariants_now().is_empty());
            if !e.blocked_units.is_empty() {
                slept_at_a_halt += event.service_stats().0.settled - before;
            }
        }
        assert!(slept_at_a_halt > 0, "the halts must catch sleeping units");
        for sys in [&mut event, &mut oracle] {
            let got = sys.run_to_completion(200_000_000).expect("resumed run");
            assert_eq!(got, want);
        }
        let ((l1, l2), (o1, o2)) = (event.service_stats(), oracle.service_stats());
        assert_eq!(l1.blocked + l1.settled, o1.blocked);
        assert_eq!(l2.blocked + l2.settled, o2.blocked);
    }

    /// The diagnostic of a budget halt on a saturated run, pinned whole:
    /// the queue registry's order, the oldest request and the `l1[i]` /
    /// `l2[s]` names in the MSHR and blocked-unit lists.
    #[test]
    fn saturated_budget_halt_diagnostic_text_is_pinned() {
        let w = by_name(&SuiteConfig::quick(), "FwAct").unwrap();
        let mut sys = ApuSystem::new(
            SystemConfig::small_test(),
            PolicyConfig::of(CachePolicy::CacheR),
            &w,
        );
        let err = sys.run_to_completion(9_337).expect_err("mid-kernel");
        assert_eq!(
            err.report(),
            include_str!("../tests/golden/stall_fwact_cacher_9337.txt")
        );
    }

    /// A lost wake is a named violation at the next check, not a wedge:
    /// drop the pending `service` wake of a sleeping L1 whose credit just
    /// came back, and `blocked_unit_wake` reports that unit.
    #[test]
    fn sentinel_names_a_sleeping_unit_whose_wake_was_lost() {
        let w = by_name(&SuiteConfig::quick(), "FwAct").unwrap();
        let fresh = || {
            ApuSystem::new(
                SystemConfig::small_test(),
                PolicyConfig::of(CachePolicy::CacheR),
                &w,
            )
        };
        let want = fresh().run_to_completion(200_000_000).expect("finished");
        let mut sys = fresh();
        let mut named = 0;
        for budget in (7_000..).step_by(61).take(40) {
            let err = sys.run_to_completion(budget).expect_err("mid-kernel");
            assert!(err.violations.is_empty(), "{err:?}");
            let now = sys.now();
            for i in 0..sys.l1.units.len() {
                let asleep = sys.l1.units[i].blocked_since().is_some();
                if !asleep || !sys.ev.unit_wake_pending(A_L1_SERVICE, now, i) {
                    continue;
                }
                sys.ev.units[UNIT_WHEEL[A_L1_SERVICE]].cancel(now, i as u8);
                let vs = sys.check_invariants_now();
                // A unit serviced on the cycle that just ended cannot
                // have missed anything yet; any other sleeper is named.
                match vs.as_slice() {
                    [] => {}
                    [v] => {
                        assert_eq!(v.invariant, "blocked_unit_wake");
                        assert_eq!(v.component, format!("l1[{i}]"));
                        assert!(v.detail.contains("no service wake pending"), "{v}");
                        named += 1;
                    }
                    _ => panic!("{vs:?}"),
                }
                // Restore the unit-wheel entry alone: its actor wake at
                // `now` is still on the actor wheel, which a budget halt
                // leaves undispatched from `now` on.
                sys.ev.units[UNIT_WHEEL[A_L1_SERVICE]].insert(now, i as u8);
                assert!(sys.check_invariants_now().is_empty());
            }
        }
        assert!(named > 0, "no halt caught a sleeper with a wake pending");
        // A unit wake with no actor wake beside it would never be taken.
        let (wheel, at) = (UNIT_WHEEL[A_L2_SERVICE], sys.now() + 100_000);
        sys.ev.units[wheel].insert(at, 3);
        let vs = sys.check_invariants_now();
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(
            (vs[0].component.as_str(), vs[0].invariant),
            ("l2[3]", "unit_wake_mirrored")
        );
        assert!(
            vs[0].detail.contains("`l2_service` wake at cycle"),
            "{}",
            vs[0]
        );
        sys.ev.units[wheel].cancel(at, 3);
        // The mask the credit edges consult must mark exactly the sleepers.
        sys.l1.asleep ^= 1;
        let vs = sys.check_invariants_now();
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(
            (vs[0].component.as_str(), vs[0].invariant),
            ("l1[0]", "blocked_unit_wake")
        );
        assert!(vs[0].detail.contains("sleep mask"), "{}", vs[0]);
        sys.l1.asleep ^= 1;
        // Wakes restored, nothing was disturbed.
        assert_eq!(sys.run_to_completion(200_000_000), Ok(want));
    }

    /// The serving hooks: kernels fed one at a time into a persistent
    /// system, policies switched in between. Every switch happens at a
    /// drained boundary, where no unit can still be asleep on a request.
    #[test]
    fn policy_switch_at_an_idle_boundary_never_meets_a_sleeping_unit() {
        let w = by_name(&SuiteConfig::quick(), "FwAct").unwrap();
        let mut sys = ApuSystem::new_idle(
            SystemConfig::small_test(),
            PolicyConfig::of(CachePolicy::CacheR),
        );
        let mut settled = 0;
        for (seq, policy) in [CachePolicy::CacheRW, CachePolicy::CacheR]
            .into_iter()
            .enumerate()
        {
            sys.enqueue_kernel(Arc::clone(&w.launches[0]), seq as u32);
            sys.run_to_completion(200_000_000).expect("kernel finished");
            let (l1, l2) = sys.service_stats();
            assert!(
                l1.settled + l2.settled > settled,
                "units slept in kernel {seq}"
            );
            settled = l1.settled + l2.settled;
            let asleep = |units: &[CacheUnit]| units.iter().any(|c| c.blocked_since().is_some());
            assert!(!asleep(&sys.l1.units) && !asleep(&sys.l2.units));
            // Would panic on a unit still holding a blocked request.
            sys.set_policy_config(&PolicyConfig::of(policy), None);
            sys.idle_until(sys.now() + 777);
        }
    }

    #[test]
    fn budget_exhaustion_fires_at_the_same_cycle_with_skipping() {
        // A wedged quiescent system warps straight to the budget; the
        // diagnostic must report the identical halt cycle either way.
        let halt_cycle = |skip: bool| {
            let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
            let mut sys = ApuSystem::new(
                SystemConfig::small_test(),
                PolicyConfig::of(CachePolicy::CacheR),
                &w,
            );
            sys.set_time_skip(skip);
            // Watchdog off: only the budget can end the wedged drain.
            sys.enable_sentinel(64, 0);
            sys.inject_l1_mshr_leak(0, miopt_engine::LineAddr(8), false);
            let err = sys.run_to_completion(100_000).expect_err("must time out");
            assert_eq!(err.reason, StallReason::CycleBudget);
            err.cycle
        };
        assert_eq!(halt_cycle(true), halt_cycle(false));
    }

    #[test]
    fn idle_system_replays_a_workload_like_a_fresh_one() {
        // Feeding a workload's kernels one at a time into a persistent
        // idle system must retire the same work as a one-shot run.
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let one_shot = run(CachePolicy::CacheR, "FwSoft");
        let mut sys = ApuSystem::new_idle(
            SystemConfig::small_test(),
            PolicyConfig::of(CachePolicy::CacheR),
        );
        assert!(sys.is_done());
        assert_eq!(sys.pending_launches(), 0);
        for (i, k) in w.launches.iter().enumerate() {
            sys.enqueue_kernel(Arc::clone(k), i as u32);
            sys.run_to_completion(200_000_000).expect("kernel finished");
            assert!(sys.is_done());
        }
        let m = sys.metrics();
        assert_eq!(m.gpu.retired_wavefronts, one_shot.gpu.retired_wavefronts);
        assert_eq!(m.dram_accesses(), one_shot.dram_accesses());
        assert_eq!(m.cycles, one_shot.cycles);
    }

    #[test]
    fn idle_until_is_bit_identical_across_skip_modes() {
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let mut runs = Vec::new();
        for skip in [true, false] {
            let mut sys = ApuSystem::new_idle(
                SystemConfig::small_test(),
                PolicyConfig::of(CachePolicy::CacheR),
            );
            sys.set_time_skip(skip);
            sys.enable_telemetry(512);
            // An idle gap runs no stage under either engine.
            let idle = |sys: &mut ApuSystem, target: Cycle| {
                let before = (sys.event_stats(), sys.service_stats());
                sys.idle_until(target);
                assert_eq!(sys.now(), target);
                let after = (sys.event_stats(), sys.service_stats());
                assert_eq!(after, before, "skip={skip}");
            };
            // Idle gap, kernel, idle gap, kernel — with gaps that are not
            // multiples of the telemetry interval.
            idle(&mut sys, Cycle(1_700));
            sys.enqueue_kernel(Arc::clone(&w.launches[0]), 0);
            sys.run_to_completion(200_000_000).expect("first kernel");
            let resume = sys.now() + 12_345;
            idle(&mut sys, resume);
            sys.enqueue_kernel(Arc::clone(&w.launches[0]), 1);
            sys.run_to_completion(200_000_000).expect("second kernel");
            let m = sys.metrics();
            runs.push((m.cycles, m.dram_accesses(), sys.take_telemetry()));
        }
        assert_eq!(runs[0], runs[1]);
    }

    /// The sample due on the exact cycle a run ends is taken on the way
    /// out, so a system that keeps running afterwards — a re-entered run,
    /// a serving loop — records it under both engines.
    #[test]
    fn a_sample_due_as_a_run_ends_is_kept_when_the_system_runs_on() {
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let fresh = |skip: bool| {
            let mut sys = ApuSystem::new_idle(
                SystemConfig::small_test(),
                PolicyConfig::of(CachePolicy::CacheR),
            );
            sys.set_time_skip(skip);
            sys.enqueue_kernel(Arc::clone(&w.launches[0]), 0);
            sys
        };
        let end = fresh(true).run_to_completion(200_000_000).unwrap().cycles;
        let runs = [true, false].map(|skip| {
            let mut sys = fresh(skip);
            sys.enable_telemetry(end);
            sys.run_to_completion(200_000_000).expect("first kernel");
            sys.idle_until(sys.now() + 1_000);
            sys.enqueue_kernel(Arc::clone(&w.launches[0]), 1);
            sys.run_to_completion(200_000_000).expect("second kernel");
            sys.take_telemetry().expect("telemetry enabled")
        });
        let ends: Vec<u64> = runs[0].epochs.iter().map(|e| e.end_cycle).collect();
        assert_eq!(ends[..2], [end, 2 * end], "{ends:?}");
        assert_eq!(runs[0], runs[1]);
    }

    /// A telemetry sample, a sentinel check that finds a violation and the
    /// cycle budget on one cycle: the sample is taken once, and the
    /// finding wins over the budget, under both engines.
    #[test]
    fn a_finding_on_the_budget_cycle_wins_and_its_sample_is_taken_once() {
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        for skip in [true, false] {
            let mut sys = ApuSystem::new(
                SystemConfig::small_test(),
                PolicyConfig::of(CachePolicy::CacheR),
                &w,
            );
            sys.set_time_skip(skip);
            sys.enable_telemetry(64);
            sys.enable_sentinel(128, 0);
            sys.inject_queue_credit_loss(1);
            let err = sys.run_to_completion(128).expect_err("must halt");
            assert_eq!(err.reason, StallReason::InvariantViolation, "skip={skip}");
            assert_eq!((err.cycle, sys.now()), (128, Cycle(128)));
            let run = sys.take_telemetry().expect("telemetry enabled");
            let ends: Vec<u64> = run.epochs.iter().map(|e| e.end_cycle).collect();
            assert_eq!(ends, [64, 128], "skip={skip}");
        }
    }

    /// The oracle really runs every stage on every cycle, so the
    /// equivalence pins cannot quietly compare the event core with
    /// itself.
    #[test]
    fn the_oracle_dispatches_every_stage_every_cycle() {
        let w = by_name(&SuiteConfig::quick(), "FwAct").unwrap();
        let cfg = SystemConfig::small_test();
        let (n, s) = (cfg.n_cus as u64, cfg.l2_slices as u64);
        let mut sys = ApuSystem::new(cfg, PolicyConfig::of(CachePolicy::CacheR), &w);
        sys.set_time_skip(false);
        let cycles = sys.run_to_completion(200_000_000).expect("finished").cycles;
        assert_eq!(sys.event_stats().1, cycles);
        for (name, events) in &sys.event_stats_by_actor()[A_DRAM..] {
            assert_eq!(*events, cycles, "{name}");
        }
        let (l1, l2) = sys.service_stats();
        assert_eq!((l1.executed, l1.settled), (n * cycles, 0));
        assert_eq!((l2.executed, l2.settled), (s * cycles, 0));
    }

    #[test]
    fn policy_switch_at_idle_boundary_takes_effect() {
        let w = by_name(&SuiteConfig::quick(), "FwSoft").unwrap();
        let mut sys = ApuSystem::new_idle(
            SystemConfig::small_test(),
            PolicyConfig::of(CachePolicy::Uncached),
        );
        sys.enqueue_kernel(Arc::clone(&w.launches[0]), 0);
        sys.run_to_completion(200_000_000).expect("uncached kernel");
        let uncached_dram = sys.metrics().dram_accesses();
        // Switch to CacheR with a half-capacity L2 partition and rerun.
        sys.set_policy_config(
            &PolicyConfig::of(CachePolicy::CacheR),
            Some(WayRange::new(0, SystemConfig::small_test().l2.ways / 2)),
        );
        sys.enqueue_kernel(Arc::clone(&w.launches[0]), 1);
        sys.run_to_completion(400_000_000).expect("cached kernel");
        let delta = sys.metrics().dram_accesses() - uncached_dram;
        assert!(
            delta < uncached_dram,
            "cached rerun must hit DRAM less: {delta} vs {uncached_dram}"
        );
        assert!(sys.check_invariants_now().is_empty());
    }

    #[test]
    fn cache_rw_coalesces_store_revisits() {
        let unc = run(CachePolicy::Uncached, "BwBN");
        let rw = run(CachePolicy::CacheRW, "BwBN");
        assert!(
            rw.dram.writes.get() < unc.dram.writes.get(),
            "rw {} vs unc {}",
            rw.dram.writes.get(),
            unc.dram.writes.get()
        );
    }
}
