//! The benchmark's stopwatch: seconds this thread spent on a CPU.
//!
//! The host this runs on is a small VM on a shared machine, and the
//! hypervisor takes the CPUs away in bursts: over one minute the wall
//! time of a fixed single-threaded case ranged from 0.76 s to 9.7 s
//! while its on-CPU time stayed between 0.73 s and 0.90 s (see
//! `README.md`, "Estimator"). Stolen time says nothing about the
//! program, so single-threaded regions are timed with the thread's
//! CPU-time clock, which the kernel keeps free of it. The timed regions
//! do no blocking I/O, so on a quiet machine this is their wall time.

use std::time::Instant;

/// CPU time consumed by the calling thread, in nanoseconds.
#[cfg(target_os = "linux")]
fn thread_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` (libc, which std links) writes one
    // `struct timespec` through the pointer; `Timespec` has that layout
    // on 64-bit Linux, and `ts` lives across the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_ns() -> Option<u64> {
    None
}

/// Measures a region run on the calling thread.
pub struct Stopwatch {
    wall: Instant,
    cpu: Option<u64>,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            wall: Instant::now(),
            cpu: thread_cpu_ns(),
        }
    }

    /// Seconds this thread has been on a CPU since [`Stopwatch::start`];
    /// wall seconds where the kernel has no per-thread CPU clock.
    pub fn seconds(&self) -> f64 {
        match (self.cpu, thread_cpu_ns()) {
            (Some(start), Some(now)) => now.saturating_sub(start) as f64 / 1e9,
            _ => self.wall.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleeping_is_not_on_cpu_time_but_spinning_is() {
        if thread_cpu_ns().is_none() {
            return;
        }
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(sw.seconds() < 0.025, "{}", sw.seconds());
        let sw = Stopwatch::start();
        let wall = Instant::now();
        while wall.elapsed().as_millis() < 30 {
            std::hint::black_box(0);
        }
        assert!(sw.seconds() > 0.005, "{}", sw.seconds());
    }
}
