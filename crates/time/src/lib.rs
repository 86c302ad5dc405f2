//! Time, duration and hardware-clock substrate for the `crusader`
//! clock-synchronization library.
//!
//! The model of Lenzen & Loss (PODC 2022) distinguishes between *real time*
//! (Newtonian time `t ∈ ℝ≥0`, which no node can observe) and *local time*
//! (the reading `H_v(t)` of node `v`'s hardware clock). Hardware clocks are
//! strictly increasing functions whose rate stays within `[1, θ]` for a known
//! constant `θ > 1`.
//!
//! This crate provides:
//!
//! * [`Dur`] — a signed duration (seconds, `f64`-backed, always finite),
//! * [`Time`] — a point in real time,
//! * [`LocalTime`] — a hardware-clock reading,
//! * [`HardwareClock`] — a piecewise-linear clock function with bounded
//!   rates, evaluable in both directions (`H` and `H⁻¹`),
//! * [`drift`] — generators producing families of hardware clocks
//!   (extremal, random, wandering) used as adversarial drift models.
//!
//! # Why `f64`?
//!
//! The simulation horizon is minutes while the bounds under study are
//! microseconds; `f64` seconds has sub-picosecond resolution there, five
//! orders of magnitude below anything we measure. Newtype wrappers keep real
//! and local time from mixing and ban non-finite values at construction.
//!
//! # Example
//!
//! ```
//! use crusader_time::{Dur, HardwareClock, Time};
//!
//! // A clock that is 2 ms ahead at t = 0 and runs 1 % fast.
//! let clock = HardwareClock::with_offset_and_rate(Dur::from_millis(2.0), 1.01);
//! let t = Time::from_secs(10.0);
//! let h = clock.read(t);
//! assert!((h.as_secs() - 10.102).abs() < 1e-12);
//! // The inverse recovers real time.
//! assert!((clock.when(h).as_secs() - 10.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod duration;
mod instant;

pub mod drift;

pub use clock::{ClockError, HardwareClock, HardwareClockBuilder, Segment};
pub use duration::Dur;
pub use instant::{LocalTime, Time};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_example_compiles() {
        let clock = HardwareClock::with_offset_and_rate(Dur::from_millis(2.0), 1.01);
        let t = Time::from_secs(10.0);
        let h = clock.read(t);
        assert!((h.as_secs() - 10.102).abs() < 1e-12);
        assert!((clock.when(h).as_secs() - 10.0).abs() < 1e-12);
    }
}
