//! The serving clock: one trait, two implementations.
//!
//! The [`DynamicBatcher`](crate::batcher::DynamicBatcher) is timestamp-driven and does
//! not care where its microseconds come from. The discrete-event replay path feeds it
//! virtual timestamps straight from the trace; the threaded runtime feeds it wall-clock
//! timestamps. This module is the seam between the two: [`WallClock`] reads a monotonic
//! hardware clock for the runtime, [`ManualClock`] is an explicitly-advanced clock so
//! runtime tests can pin deadline behaviour without real sleeps or flaky timing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic microsecond clock. `now_us` must be non-decreasing across calls, from any
/// thread.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Microseconds elapsed on this clock (origin is implementation-defined).
    fn now_us(&self) -> f64;

    /// Whether time on this clock moves only when told to ([`ManualClock`]). The threaded
    /// runtime then forms batches on size and deadline alone, so every batch is a
    /// function of the trace; on a clock that runs by itself an idle worker flushes
    /// whatever is pending at once.
    fn is_manual(&self) -> bool {
        false
    }
}

/// The real monotonic clock, counting microseconds since the clock was created.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock starting at zero now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }
}

/// A manually-advanced clock for deterministic tests: time moves only when a test calls
/// its test-only `advance_us` or `set_us`. Shared across threads via `Arc`, like any
/// other [`Clock`].
#[derive(Debug, Default)]
pub struct ManualClock {
    /// Current time in microseconds, stored as `f64` bits (all stored values are
    /// non-negative, so the bit patterns order like the floats they encode).
    now_bits: AtomicU64,
}

impl ManualClock {
    /// A manual clock frozen at zero.
    pub fn new() -> Self {
        Self {
            now_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// Move the clock forward by `delta_us` (negative or non-finite deltas are ignored).
    #[cfg(test)]
    pub(crate) fn advance_us(&self, delta_us: f64) {
        if delta_us.is_finite() && delta_us > 0.0 {
            let now = f64::from_bits(self.now_bits.load(Ordering::Acquire));
            self.set_us(now + delta_us);
        }
    }

    /// Set the clock to `now_us`; the clock never moves backwards, so an earlier value
    /// is ignored.
    #[cfg(test)]
    pub(crate) fn set_us(&self, now_us: f64) {
        if !now_us.is_finite() || now_us < 0.0 {
            return;
        }
        // fetch_max on the bit pattern: non-negative f64 bits order like the values.
        self.now_bits.fetch_max(now_us.to_bits(), Ordering::AcqRel);
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> f64 {
        f64::from_bits(self.now_bits.load(Ordering::Acquire))
    }

    fn is_manual(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone_and_advances() {
        let clock = WallClock::default();
        let a = clock.now_us();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = clock.now_us();
        assert!(a >= 0.0);
        assert!(b > a, "wall clock must advance across a sleep: {a} -> {b}");
    }

    #[test]
    fn manual_clock_moves_only_when_told() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_us(), 0.0);
        clock.advance_us(125.0);
        assert_eq!(clock.now_us(), 125.0);
        clock.advance_us(-10.0);
        clock.advance_us(f64::NAN);
        assert_eq!(clock.now_us(), 125.0);
        clock.set_us(1000.0);
        assert_eq!(clock.now_us(), 1000.0);
        clock.set_us(500.0); // never backwards
        assert_eq!(clock.now_us(), 1000.0);
        clock.set_us(f64::INFINITY);
        assert_eq!(clock.now_us(), 1000.0);
    }

    #[test]
    fn manual_clock_is_shareable_across_threads() {
        let clock = std::sync::Arc::new(ManualClock::new());
        let seen = {
            let clock = clock.clone();
            std::thread::spawn(move || {
                while clock.now_us() < 50.0 {
                    std::hint::spin_loop();
                }
                clock.now_us()
            })
        };
        clock.advance_us(75.0);
        assert!(seen.join().unwrap() >= 50.0);
    }
}
