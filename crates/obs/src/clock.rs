//! Monotonic process clock for code outside the obs crate.
//!
//! Rule TM-L002 confines raw `Instant::now()` to the obs layer so that
//! timing stays observable and mockable in one place. Long-lived runtime
//! code (the serve admission queue, request deadlines, reload polling)
//! still needs a monotonic "now"; this module is that sanctioned source:
//! microseconds since a process-wide epoch captured on first use.
//!
//! The epoch is lazy and shared, so differences between two
//! [`monotonic_micros`] readings taken anywhere in the process measure
//! real elapsed wall-time, immune to system-clock steps.

use std::sync::OnceLock;
use std::time::Instant;

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds elapsed since the process-wide monotonic epoch (the
/// first call to any function in this module).
pub fn monotonic_micros() -> u64 {
    // u64 micros overflow ~584k years after the epoch; saturate anyway.
    u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Milliseconds elapsed since the process-wide monotonic epoch.
pub fn monotonic_millis() -> u64 {
    monotonic_micros() / 1_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_never_goes_backwards() {
        let mut last = monotonic_micros();
        for _ in 0..1_000 {
            let now = monotonic_micros();
            assert!(now >= last);
            last = now;
        }
    }

    #[test]
    fn millis_track_micros() {
        let us = monotonic_micros();
        let ms = monotonic_millis();
        // millis sampled after micros, so ms >= us/1000 is not guaranteed
        // in the other direction; both must stay in lockstep within 1s.
        assert!(ms >= us / 1_000);
        assert!(ms - us / 1_000 < 1_000);
    }
}
