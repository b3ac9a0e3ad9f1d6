//! Host-speed calibration for the timed metrics.
//!
//! On a shared host the speed of a CPU drifts by tens of percent from one
//! second to the next (other tenants load the same cores and caches), and
//! the wall time of a fixed unit of work drifts with it: the same pass of
//! the same query list can take 1.1 s in one run and 1.7 s in the next.
//! So every timed unit is bracketed by runs of a fixed kernel that does
//! not depend on the engine, and the unit's time is taken over the faster
//! of its two brackets: its cost in kernel runs, which holds steady while
//! wall times swing. Multiplied by the kernel's time on a reference host,
//! it reads in seconds of that host. A change that makes the engine
//! slower makes the unit slower and leaves the kernel alone, so it shows
//! in full.

use std::time::Instant;

/// Items the kernel fills, sorts and reads back at random (2 MiB of
/// `u64`: more than the L2 caches, so it feels memory as the engine does).
const KERNEL_ITEMS: usize = 1 << 18;

/// The kernel's time on the reference host (a 2-vCPU Intel Xeon virtual
/// machine, release build, fast state), s. Scaled times read in seconds
/// of that host.
pub const REFERENCE_KERNEL_S: f64 = 0.0065;

/// Runs the kernel once and returns its wall time, s.
pub fn kernel_s() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut items: Vec<u64> = (0..KERNEL_ITEMS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    items.sort_unstable();
    let mut acc = 0u64;
    for (i, item) in items.iter().enumerate() {
        acc = acc.wrapping_add(items[*item as usize % KERNEL_ITEMS] ^ i as u64);
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64()
}

/// `raw_s` at the reference host's speed: over the faster of the kernel
/// runs before and after the unit, times [`REFERENCE_KERNEL_S`]. The
/// faster bracket is the one least disturbed by the host.
pub fn scaled_s(raw_s: f64, before_s: f64, after_s: f64) -> f64 {
    raw_s / before_s.min(after_s) * REFERENCE_KERNEL_S
}

/// Runs `work` between two kernel runs; returns its output and its
/// scaled time (s).
pub fn time<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let before = kernel_s();
    let started = Instant::now();
    let out = work();
    let raw_s = started.elapsed().as_secs_f64();
    let after = kernel_s();
    (out, scaled_s(raw_s, before, after))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_time_uses_the_faster_bracket() {
        let at_reference = scaled_s(1.0, REFERENCE_KERNEL_S, 3.0 * REFERENCE_KERNEL_S);
        assert!((at_reference - 1.0).abs() < 1e-12, "{at_reference}");
        // A host half as fast: the unit and the kernel both take twice as
        // long, and the scaled time does not move.
        let slow = scaled_s(2.0, 2.0 * REFERENCE_KERNEL_S, 2.5 * REFERENCE_KERNEL_S);
        assert!((slow - 1.0).abs() < 1e-12, "{slow}");
    }

    #[test]
    fn time_returns_the_output_and_a_scaled_time() {
        let (out, took) = time(|| 6 * 7);
        assert_eq!(out, 42);
        assert!(took >= 0.0 && took.is_finite());
        assert!(kernel_s() > 0.0);
    }
}
