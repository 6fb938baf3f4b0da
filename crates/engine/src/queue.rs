use crate::sentinel::{InvariantViolation, Sentinel};
use crate::Cycle;
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Error returned by [`TimedQueue::push`] when the queue is at capacity.
///
/// Carries the rejected item back to the caller so it can be retried (the
/// usual simulator pattern: leave the item at the producer and count a stall
/// cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushFullError<T>(pub T);

impl<T> fmt::Display for PushFullError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("queue is full")
    }
}

impl<T: fmt::Debug> Error for PushFullError<T> {}

/// A capacity-bounded FIFO whose items become visible only after a fixed
/// latency, modeling a pipelined wire or buffer stage.
///
/// Ordering is strictly FIFO: an item can never become ready before one
/// pushed earlier (ready times are made monotonic on push), which mirrors an
/// in-order pipeline.
///
/// # Examples
///
/// ```
/// use miopt_engine::{Cycle, TimedQueue};
///
/// // 2-entry queue with a 3-cycle traversal latency.
/// let mut q = TimedQueue::new(2, 3);
/// q.push(Cycle(0), "a").unwrap();
/// q.push(Cycle(1), "b").unwrap();
/// assert!(q.push(Cycle(1), "c").is_err()); // full
/// assert_eq!(q.pop_ready(Cycle(3)), Some("a"));
/// assert_eq!(q.pop_ready(Cycle(3)), None); // "b" ready at 4
/// assert_eq!(q.pop_ready(Cycle(4)), Some("b"));
/// ```
#[derive(Debug, Clone)]
pub struct TimedQueue<T> {
    items: VecDeque<(Cycle, T)>,
    capacity: usize,
    latency: u64,
    last_ready: Cycle,
    pushed: u64,
    /// Flow-control credits deliberately destroyed by
    /// [`inject_credit_loss`](TimedQueue::inject_credit_loss). Always zero
    /// outside fault-injection tests; the sentinel flags any nonzero value.
    lost_credits: usize,
}

impl<T> TimedQueue<T> {
    /// Creates a queue holding at most `capacity` items, each visible
    /// `latency` cycles after it is pushed.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize, latency: u64) -> TimedQueue<T> {
        assert!(capacity > 0, "queue capacity must be nonzero");
        TimedQueue {
            items: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
            latency,
            last_ready: Cycle::ZERO,
            pushed: 0,
            lost_credits: 0,
        }
    }

    /// The capacity currently usable for pushes: the configured capacity
    /// minus any credits destroyed by fault injection.
    fn effective_capacity(&self) -> usize {
        self.capacity.saturating_sub(self.lost_credits)
    }

    /// Enqueues `item` at time `now`.
    ///
    /// # Errors
    ///
    /// Returns [`PushFullError`] carrying `item` back if the queue is full.
    pub fn push(&mut self, now: Cycle, item: T) -> Result<(), PushFullError<T>> {
        if self.items.len() >= self.effective_capacity() {
            return Err(PushFullError(item));
        }
        let ready = (now + self.latency).max(self.last_ready);
        self.last_ready = ready;
        self.items.push_back((ready, item));
        self.pushed += 1;
        Ok(())
    }

    /// Whether a push at time `now` would succeed.
    #[must_use]
    pub fn can_push(&self) -> bool {
        self.items.len() < self.effective_capacity()
    }

    /// How many more items can be pushed before the queue is full.
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.effective_capacity().saturating_sub(self.items.len())
    }

    /// The front item, if it has traversed the queue by `now`.
    #[must_use]
    pub fn ready_front(&self, now: Cycle) -> Option<&T> {
        match self.items.front() {
            Some((ready, item)) if *ready <= now => Some(item),
            _ => None,
        }
    }

    /// Removes and returns the front item if it is ready at `now`.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.ready_front(now).is_some() {
            self.items.pop_front().map(|(_, item)| item)
        } else {
            None
        }
    }

    /// Number of items in flight or waiting.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue holds no items.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The configured traversal latency in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Cumulative count of successful pushes over the queue's lifetime
    /// (a monotonic traffic counter; telemetry samples it per epoch).
    #[must_use]
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// The cycle at which the front item becomes (or became) ready, or
    /// `None` on an empty queue. Unlike [`TimedQueue::ready_front`] this
    /// looks *forward* in time: it is the queue's contribution to the
    /// event-driven fast forward — no pop can succeed before this cycle,
    /// so a scheduler may safely skip straight to it.
    #[must_use]
    pub fn next_ready(&self) -> Option<Cycle> {
        self.items.front().map(|(ready, _)| *ready)
    }

    /// Iterates over queued items front to back, ignoring readiness.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter().map(|(_, item)| item)
    }

    /// Drains every item regardless of readiness (used at end-of-run).
    pub fn drain_all(&mut self) -> impl Iterator<Item = T> + '_ {
        self.items.drain(..).map(|(_, item)| item)
    }

    /// Fault-injection hook: permanently destroys one flow-control credit,
    /// shrinking the queue's usable capacity by one.
    ///
    /// This models a credit-return bug in a flow-controlled link. It exists
    /// solely to validate the sentinel: the
    /// [`credit_conservation`](Sentinel::check_invariants) invariant must
    /// flag the queue on the next check. Never called by the simulator
    /// itself.
    pub fn inject_credit_loss(&mut self) {
        self.lost_credits += 1;
    }
}

impl<T> Sentinel for TimedQueue<T> {
    fn check_invariants(&self, component: &str, out: &mut Vec<InvariantViolation>) {
        if self.lost_credits != 0 {
            out.push(InvariantViolation {
                component: component.to_string(),
                invariant: "credit_conservation",
                detail: format!(
                    "{} flow-control credit(s) lost: usable capacity {} < configured {}",
                    self.lost_credits,
                    self.effective_capacity(),
                    self.capacity
                ),
            });
        }
        if self.items.len() > self.capacity {
            out.push(InvariantViolation {
                component: component.to_string(),
                invariant: "queue_occupancy",
                detail: format!(
                    "{} items enqueued > capacity {}",
                    self.items.len(),
                    self.capacity
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn respects_latency() {
        let mut q = TimedQueue::new(8, 5);
        q.push(Cycle(10), 1u32).unwrap();
        assert!(q.pop_ready(Cycle(14)).is_none());
        assert_eq!(q.pop_ready(Cycle(15)), Some(1));
    }

    #[test]
    fn zero_latency_is_same_cycle() {
        let mut q = TimedQueue::new(8, 0);
        q.push(Cycle(10), 1u32).unwrap();
        assert_eq!(q.pop_ready(Cycle(10)), Some(1));
    }

    #[test]
    fn rejects_when_full_and_returns_item() {
        let mut q = TimedQueue::new(1, 0);
        q.push(Cycle(0), 1u32).unwrap();
        let err = q.push(Cycle(0), 2u32).unwrap_err();
        assert_eq!(err.0, 2);
        assert!(!q.can_push());
        q.pop_ready(Cycle(0));
        assert!(q.can_push());
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut q = TimedQueue::new(8, 2);
        for i in 0..5u32 {
            q.push(Cycle(i as u64), i).unwrap();
        }
        let mut got = Vec::new();
        while let Some(v) = q.pop_ready(Cycle(100)) {
            got.push(v);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ready_times_are_monotonic() {
        let mut q = TimedQueue::new(8, 10);
        q.push(Cycle(100), 'a').unwrap(); // ready at 110
        q.push(Cycle(0), 'b').unwrap(); // naively ready at 10, clamped to 110
        assert!(q.pop_ready(Cycle(109)).is_none());
        assert_eq!(q.pop_ready(Cycle(110)), Some('a'));
        assert_eq!(q.pop_ready(Cycle(110)), Some('b'));
    }

    #[test]
    fn pushed_counts_only_accepted_items() {
        let mut q = TimedQueue::new(1, 0);
        q.push(Cycle(0), 1u32).unwrap();
        let _ = q.push(Cycle(0), 2u32); // rejected: full
        assert_eq!(q.pushed(), 1);
        q.pop_ready(Cycle(0));
        q.push(Cycle(1), 3u32).unwrap();
        assert_eq!(q.pushed(), 2);
    }

    #[test]
    fn drain_ignores_readiness() {
        let mut q = TimedQueue::new(8, 1000);
        q.push(Cycle(0), 1u32).unwrap();
        q.push(Cycle(0), 2u32).unwrap();
        let all: Vec<_> = q.drain_all().collect();
        assert_eq!(all, vec![1, 2]);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = TimedQueue::<u32>::new(0, 1);
    }

    #[test]
    fn healthy_queue_reports_no_violations() {
        let mut q = TimedQueue::new(2, 0);
        q.push(Cycle(0), 1u32).unwrap();
        let mut out = Vec::new();
        q.check_invariants("queue.test", &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn credit_loss_shrinks_capacity_and_trips_the_sentinel() {
        let mut q = TimedQueue::new(2, 0);
        q.inject_credit_loss();
        assert_eq!(q.free_slots(), 1);
        q.push(Cycle(0), 1u32).unwrap();
        assert!(!q.can_push(), "lost credit must shrink usable capacity");
        let mut out = Vec::new();
        q.check_invariants("queue.l1_in[0]", &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].component, "queue.l1_in[0]");
        assert_eq!(out[0].invariant, "credit_conservation");
        assert!(out[0].detail.contains("1 flow-control credit"));
    }

    #[test]
    fn next_ready_reports_the_front_deadline() {
        let mut q = TimedQueue::new(4, 10);
        assert_eq!(q.next_ready(), None);
        q.push(Cycle(5), 'a').unwrap(); // ready at 15
        q.push(Cycle(100), 'b').unwrap(); // ready at 110
        assert_eq!(q.next_ready(), Some(Cycle(15)));
        assert!(q.pop_ready(Cycle(14)).is_none());
        assert_eq!(q.pop_ready(Cycle(15)), Some('a'));
        assert_eq!(q.next_ready(), Some(Cycle(110)));
    }
}
