//! Heap-allocation accounting shared with opt-in counting allocators.
//!
//! The engine itself installs no allocator (this crate forbids `unsafe`).
//! Instead, a binary that wants allocation counts — the `zero_alloc`
//! steady-state test, the benchmark's traced run (`bench/`) — installs
//! its own `#[global_allocator]` wrapper around the system allocator and
//! reports every allocation here. The simulator's profiler then reads
//! [`count`] deltas around each event dispatch to attribute allocations
//! per actor.
//!
//! When no counting allocator is installed, [`installed`] is `false` and
//! [`count`] stays at zero; readers treat the counts as "not measured"
//! rather than "zero".

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Cumulative heap allocations (calls to `alloc`/`realloc`) observed by
/// the installed counting allocator.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Whether a counting allocator has announced itself.
static INSTALLED: AtomicBool = AtomicBool::new(false);

/// Called by a counting `#[global_allocator]` once per allocation.
///
/// Relaxed ordering: the counter is a statistic, not a synchronization
/// point.
#[inline]
pub fn note_alloc() {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// Declares that a counting allocator is active in this process (call
/// once from the binary that installs it, before measuring).
pub fn set_installed() {
    INSTALLED.store(true, Ordering::Relaxed);
}

/// Whether allocation counts are being collected in this process.
#[must_use]
pub fn installed() -> bool {
    INSTALLED.load(Ordering::Relaxed)
}

/// The cumulative allocation count (zero when no counting allocator is
/// installed).
#[must_use]
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates_notes() {
        // No counting allocator in the unit-test binary: exercise the
        // plumbing directly.
        let before = count();
        note_alloc();
        note_alloc();
        assert!(count() >= before + 2);
    }
}
