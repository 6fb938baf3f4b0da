//! Property tests on the engine's `Arena`/`HandleFifo` pair against
//! a `Vec`/`VecDeque` reference model: arbitrary insert/remove/push/pop
//! interleavings preserve FIFO order, conserve elements, and reuse freed
//! slots instead of growing.

use miopt_engine::prop::{self, Case};
use miopt_engine::{Arena, Handle, HandleFifo};
use std::collections::VecDeque;

#[derive(Debug, Clone)]
enum Step {
    /// Insert a standalone value (not queued), removed again later.
    Insert(u32),
    /// Remove the oldest standalone value.
    Remove,
    /// Insert a value and push its handle onto the FIFO's tail.
    PushBack(u32),
    /// Pop the FIFO's head handle and remove its value from the arena.
    PopFront,
    /// Pop the FIFO's head directly as a value.
    PopValue,
}

fn step(c: &mut Case) -> Step {
    match c.below(5) {
        0 => Step::Insert(c.below(1000) as u32),
        1 => Step::Remove,
        2 => Step::PushBack(c.below(1000) as u32),
        3 => Step::PopFront,
        _ => Step::PopValue,
    }
}

/// The arena + intrusive FIFO behave exactly like a `VecDeque` of
/// values, and the slab never holds more slots than the peak live
/// count (free-list reuse, no growth in steady state).
#[test]
fn fifo_matches_vecdeque_model() {
    prop::check("fifo_matches_vecdeque_model", 256, |c| {
        let mut arena: Arena<u32> = Arena::new();
        let mut fifo = HandleFifo::new();
        // Standalone (non-queued) live handles, oldest first.
        let mut loose: VecDeque<(Handle, u32)> = VecDeque::new();
        // Reference model of the FIFO's contents.
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut peak_live = 0usize;

        for _ in 0..c.steps(1..300) {
            match step(c) {
                Step::Insert(v) => {
                    let h = arena.insert(v);
                    loose.push_back((h, v));
                }
                Step::Remove => {
                    if let Some((h, v)) = loose.pop_front() {
                        assert_eq!(arena.remove(h), v, "removed value round-trips");
                    }
                }
                Step::PushBack(v) => {
                    let h = arena.insert(v);
                    fifo.push_back(&mut arena, h);
                    model.push_back(v);
                }
                Step::PopFront => match fifo.pop_front(&mut arena) {
                    Some(h) => {
                        let want = model.pop_front().expect("model agrees FIFO is non-empty");
                        assert_eq!(arena.remove(h), want, "head handle holds model head");
                    }
                    None => assert!(model.is_empty(), "empty FIFO matches empty model"),
                },
                Step::PopValue => {
                    assert_eq!(
                        fifo.pop_value(&mut arena),
                        model.pop_front(),
                        "FIFO pops in model order"
                    );
                }
            }
            let live = loose.len() + model.len();
            peak_live = peak_live.max(live);
            assert_eq!(arena.len(), live, "arena tracks live count");
            assert_eq!(fifo.len(), model.len(), "FIFO tracks queue length");
            assert_eq!(fifo.is_empty(), model.is_empty());
            assert!(
                arena.capacity() <= peak_live,
                "slab reuses freed slots instead of growing: {} slots > {} peak live",
                arena.capacity(),
                peak_live
            );
            if let Some(&want) = model.front() {
                let head = fifo.front(&arena).expect("non-empty FIFO has a head");
                assert_eq!(*arena.get(head), want, "front peeks the model head");
            }
            // Iteration observes the whole queue in order without
            // consuming it.
            let seen: Vec<u32> = fifo.iter(&arena).copied().collect();
            let want: Vec<u32> = model.iter().copied().collect();
            assert_eq!(seen, want, "iter matches model order");
        }

        // Drain everything; the arena must come back to empty.
        while let Some(v) = fifo.pop_value(&mut arena) {
            assert_eq!(Some(v), model.pop_front());
        }
        for (h, v) in loose.drain(..) {
            assert_eq!(arena.remove(h), v);
        }
        assert_eq!(arena.len(), 0);
        assert!(fifo.is_empty());
    });
}

/// Debug builds reject stale handles via the generation check; the slot
/// may meanwhile have been reused by a fresh insert.
#[cfg(debug_assertions)]
#[test]
fn stale_handle_panics_in_debug() {
    prop::check("stale_handle_panics_in_debug", 64, |c| {
        let v = c.below(1000) as u32;
        let mut arena: Arena<u32> = Arena::new();
        let h = arena.insert(v);
        arena.remove(h);
        if c.bool() {
            // Reuses the freed slot but bumps the generation, so the
            // old handle must still be rejected.
            let _ = arena.insert(v.wrapping_add(1));
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = arena.get(h);
        }));
        assert!(
            caught.is_err(),
            "stale handle access must panic in debug builds"
        );
    });
}
