//! Property tests on the engine's `TimedQueue`: FIFO order, latency
//! respect, and conservation under arbitrary push/pop interleavings.

use miopt_engine::prop::{self, Case};
use miopt_engine::{Cycle, TimedQueue};

#[derive(Debug, Clone)]
enum Step {
    Push(u32),
    Pop,
    Advance(u64),
}

fn step(c: &mut Case) -> Step {
    match c.below(3) {
        0 => Step::Push(c.below(1000) as u32),
        1 => Step::Pop,
        _ => Step::Advance(c.range(1..20)),
    }
}

#[test]
fn fifo_latency_and_conservation() {
    prop::check("fifo_latency_and_conservation", 128, |c| {
        let capacity = c.range(1..16) as usize;
        let latency = c.below(30);
        let mut q = TimedQueue::new(capacity, latency);
        let mut now = Cycle(0);
        let mut pushed: Vec<(u32, Cycle)> = Vec::new();
        let mut popped: Vec<u32> = Vec::new();
        let mut accepted = 0usize;

        for _ in 0..c.steps(1..200) {
            match step(c) {
                Step::Push(v) => {
                    let before = q.len();
                    match q.push(now, v) {
                        Ok(()) => {
                            assert!(before < capacity, "push accepted beyond capacity");
                            pushed.push((v, now));
                            accepted += 1;
                        }
                        Err(e) => {
                            assert_eq!(before, capacity, "push rejected below capacity");
                            assert_eq!(e.0, v, "rejected item returned");
                        }
                    }
                }
                Step::Pop => {
                    if let Some(v) = q.pop_ready(now) {
                        // FIFO: must be the oldest unpopped item.
                        let (expect, pushed_at) = pushed[popped.len()];
                        assert_eq!(v, expect, "FIFO order violated");
                        // Latency: visible no earlier than push + latency.
                        assert!(now.0 >= pushed_at.0 + latency, "latency violated");
                        popped.push(v);
                    }
                }
                Step::Advance(d) => now += d,
            }
        }
        // Conservation: everything accepted is either popped or inside.
        assert_eq!(popped.len() + q.len(), accepted);
        // Drain the rest and re-check FIFO.
        let rest: Vec<u32> = q.drain_all().collect();
        let expected: Vec<u32> = pushed[popped.len()..].iter().map(|(v, _)| *v).collect();
        assert_eq!(rest, expected);
    });
}

#[test]
fn ready_front_agrees_with_pop() {
    prop::check("ready_front_agrees_with_pop", 128, |c| {
        let latency = c.below(10);
        let values: Vec<u32> = (0..c.steps(1..20)).map(|_| c.below(100) as u32).collect();
        let mut q = TimedQueue::new(32, latency);
        for v in &values {
            q.push(Cycle(0), *v).unwrap();
        }
        let mut now = Cycle(0);
        let mut out = Vec::new();
        let mut guard = 0;
        while out.len() < values.len() {
            let peeked = q.ready_front(now).copied();
            let popped = q.pop_ready(now);
            assert_eq!(peeked, popped, "peek/pop disagree");
            if let Some(v) = popped {
                out.push(v);
            } else {
                now += 1;
            }
            guard += 1;
            assert!(guard < 10_000);
        }
        assert_eq!(out, values);
    });
}
