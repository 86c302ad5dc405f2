use std::time::Instant;

use crusader_time::{Dur, LocalTime};

/// An emulated drifting hardware clock over the host's monotonic clock:
/// `H(t) = offset + rate · (t − start)`.
///
/// The wall-clock runtime uses these to reproduce the model's clock-drift
/// assumption on real hardware whose TSC is (at our timescales) perfectly
/// disciplined. `rate ∈ [1, θ]` and `offset ∈ [0, S]` as in the model.
#[derive(Clone, Debug)]
pub struct EmulatedClock {
    start: Instant,
    offset: Dur,
    rate: f64,
}

impl EmulatedClock {
    /// Creates a clock anchored at `start` (usually the harness epoch).
    ///
    /// # Panics
    ///
    /// Panics unless `rate > 0`.
    #[must_use]
    pub fn new(start: Instant, offset: Dur, rate: f64) -> Self {
        assert!(rate > 0.0, "clock rate must be positive");
        EmulatedClock {
            start,
            offset,
            rate,
        }
    }

    /// Reads the clock at host instant `now`.
    #[must_use]
    pub fn read(&self, now: Instant) -> LocalTime {
        let elapsed = now.saturating_duration_since(self.start).as_secs_f64();
        LocalTime::ZERO + self.offset + Dur::from_secs(elapsed * self.rate)
    }

    /// The first host instant at which the clock reads `at` or more
    /// (clamped to `start` for pre-epoch readings): whole nanoseconds,
    /// rounded up, plus one, so that float rounding cannot make
    /// [`read`](Self::read) of it fall short of `at`. A deadline 2⁶⁴ ns
    /// (584 years) or more past `start` saturates there.
    #[must_use]
    pub fn when(&self, at: LocalTime) -> Instant {
        let local_span = (at - (LocalTime::ZERO + self.offset)).as_secs();
        let real_ns = (local_span / self.rate * 1e9).ceil().max(0.0);
        // `as` saturates a float above `u64::MAX`.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let real_ns = real_ns as u64;
        self.start + std::time::Duration::from_nanos(real_ns.saturating_add(1))
    }

    /// The emulated rate.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn read_applies_offset_and_rate() {
        let start = Instant::now();
        let clock = EmulatedClock::new(start, Dur::from_millis(2.0), 1.5);
        let later = start + Duration::from_millis(100);
        let local = clock.read(later);
        assert!((local.as_secs() - (0.002 + 0.15)).abs() < 1e-9);
        assert_eq!(clock.rate(), 1.5);
    }

    #[test]
    fn when_inverts_read() {
        let start = Instant::now();
        let clock = EmulatedClock::new(start, Dur::from_millis(1.0), 1.01);
        let t = start + Duration::from_millis(50);
        let back = clock.when(clock.read(t));
        let diff = if back > t { back - t } else { t - back };
        assert!(diff < Duration::from_micros(1));
    }

    #[test]
    fn a_reading_at_when_is_never_short_of_its_target() {
        let start = Instant::now();
        for (offset, rate) in [(0.0, 1.0), (0.7, 1.01), (3.3, 1.000_001), (0.0, 1.5)] {
            let clock = EmulatedClock::new(start, Dur::from_millis(offset), rate);
            for k in 0..10_000 {
                let at = LocalTime::from_micros(offset * 1e3 + 0.1 + f64::from(k) * 997.3);
                assert!(clock.read(clock.when(at)) >= at, "{at:?} at rate {rate}");
            }
        }
    }

    #[test]
    fn a_far_deadline_saturates_instead_of_wrapping() {
        let start = Instant::now();
        let clock = EmulatedClock::new(start, Dur::ZERO, 1.0);
        let far = start + Duration::from_nanos(u64::MAX);
        assert_eq!(clock.when(LocalTime::from_secs(1e12)), far);
        assert_eq!(clock.when(LocalTime::from_secs(f64::MAX)), far);
    }

    #[test]
    fn pre_epoch_reads_clamp() {
        let start = Instant::now();
        let clock = EmulatedClock::new(start, Dur::ZERO, 1.0);
        // A target before the offset maps back to the epoch.
        assert!(clock.when(LocalTime::ZERO) <= start + Duration::from_micros(1));
    }
}
