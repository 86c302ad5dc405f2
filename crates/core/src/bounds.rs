//! The bounds the system claims, each defined once for tests, experiments
//! and examples to share: Definition 3 under Theorem 17, the one-to-many
//! fleet's skew, the rejoin catch-up time and the wall-clock runtime's
//! skew envelope.

use crusader_sim::metrics::PulseStats;
use crusader_time::Dur;

use crate::params::{Derived, Params};
use crate::recovery::RecoveringNode;

/// Which bound a run broke.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    /// Skew `max_v p_{v,r} − min_v p_{v,r} ≤ S`.
    Skew,
    /// Period `min_v p_{v,r+1} − max_v p_{v,r} ≥ P_min`.
    MinPeriod,
    /// Period `max_v p_{v,r+1} − min_v p_{v,r} ≤ P_max`.
    MaxPeriod,
}

/// A broken bound, at the pulse where the run came out worst.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Breach {
    /// The bound broken.
    pub bound: Bound,
    /// The 1-based pulse `r` of the worst value (a period's first pulse).
    pub round: usize,
    /// The worst value observed.
    pub observed: Dur,
    /// The paper's limit (`S`, `P_min` or `P_max`).
    pub limit: Dur,
}

/// Definition 3 with Theorem 17's `S`, `P_min` and `P_max`: every complete
/// pulse's skew is at most `S`, compared exactly, and every period lies in
/// `[P_min, P_max]` up to 1 ns. Periods need two complete pulses and are
/// not checked below that ([`pulse_stats`] reports them as zero there).
/// Liveness, the pulse count a run must reach, is the caller's to check.
///
/// # Errors
///
/// The first breach found, skew before periods.
///
/// [`pulse_stats`]: crusader_sim::metrics::pulse_stats
pub fn definition3(stats: &PulseStats, derived: &Derived) -> Result<(), Breach> {
    // Slack on the period limits: a period is a difference of pulse
    // times, each carrying f64 rounding, while P_min/P_max are formulas.
    let (s, d, tol) = (stats, derived, Dur::from_nanos(1.0));
    let periods = s.complete_pulses >= 2;
    let (bound, round, observed, limit) = if s.max_skew > d.s {
        let worst = s.skews.iter().position(|&k| k == s.max_skew);
        (Bound::Skew, worst.map_or(0, |i| i + 1), s.max_skew, d.s)
    } else if periods && s.min_period < d.p_min - tol {
        (Bound::MinPeriod, s.min_period_round, s.min_period, d.p_min)
    } else if periods && s.max_period > d.p_max + tol {
        (Bound::MaxPeriod, s.max_period_round, s.max_period, d.p_max)
    } else {
        return Ok(());
    };
    Err(Breach {
        bound,
        round,
        observed,
        limit,
    })
}

/// The one-to-many fleet's skew bound `S(1 + θ²) + d` (module docs of
/// [`crate::client`]): a client trails the core by the dealers' send
/// offset, `θ·S` local and so at most `θ²·S` real, plus one flight ≤ `d`.
#[must_use]
pub fn fleet_skew(params: &Params, derived: &Derived) -> Dur {
    derived.s * (1.0 + params.theta * params.theta) + params.d
}

/// The wall-clock runtime's skew envelope `d + 2S`: host scheduling jitter
/// inflates the delay uncertainty past the configured `u`, so a run on real
/// threads is held to this looser bound rather than to the simulator's `S`.
#[must_use]
pub fn runtime_skew(params: &Params, derived: &Derived) -> Dur {
    params.d + derived.s * 2.0
}

/// The rejoin catch-up bound `θ·(2d + u) + 2·P_max` (module docs of
/// [`crate::recovery`]): one resync collect window
/// ([`RecoveringNode::collect_window`]) plus two maximum periods from the
/// deadline to the recovered node's next pulse.
#[must_use]
pub fn rejoin_catch_up(params: &Params, derived: &Derived) -> Dur {
    RecoveringNode::collect_window(params) + derived.p_max * 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn derived() -> Derived {
        let p = Params::max_resilience(4, Dur::from_millis(1.0), Dur::from_micros(10.0), 1.0001);
        p.derive().unwrap()
    }

    /// Three complete pulses (unless `pulses` says otherwise): the second
    /// has skew `skew`, the first period is the shortest, the second the
    /// longest.
    fn stats(skew: Dur, min_period: Dur, max_period: Dur, pulses: usize) -> PulseStats {
        PulseStats {
            skews: vec![Dur::ZERO, skew, Dur::ZERO],
            max_skew: skew,
            min_period,
            min_period_round: 1,
            max_period,
            max_period_round: 2,
            complete_pulses: pulses,
        }
    }

    /// The period window's outer edges: the documented 1 ns tolerance.
    fn edges(d: &Derived) -> (Dur, Dur) {
        let tol = Dur::from_nanos(1.0);
        (d.p_min - tol, d.p_max + tol)
    }

    #[test]
    fn values_exactly_at_the_bounds_pass() {
        let d = derived();
        let (lo, hi) = edges(&d);
        assert_eq!(definition3(&stats(d.s, lo, hi, 3), &d), Ok(()));
    }

    #[test]
    fn one_ulp_past_a_bound_is_a_typed_breach() {
        let d = derived();
        let (lo, hi) = edges(&d);
        let breach = |skew, min, max| {
            let b = definition3(&stats(skew, min, max, 3), &d).unwrap_err();
            (b.bound, b.round, b.observed, b.limit)
        };
        let up = |x: Dur| Dur::from_secs(x.as_secs().next_up());
        let (skew, min, max) = (up(d.s), Dur::from_secs(lo.as_secs().next_down()), up(hi));
        assert_eq!(breach(skew, lo, hi), (Bound::Skew, 2, skew, d.s));
        assert_eq!(breach(d.s, min, hi), (Bound::MinPeriod, 1, min, d.p_min));
        assert_eq!(breach(d.s, lo, max), (Bound::MaxPeriod, 2, max, d.p_max));
    }

    #[test]
    fn periods_are_not_checked_below_two_pulses() {
        // pulse_stats reports both periods as zero here, far below P_min.
        let d = derived();
        let zero_periods = |pulses| definition3(&stats(d.s, Dur::ZERO, Dur::ZERO, pulses), &d);
        assert_eq!(zero_periods(0), Ok(()));
        assert_eq!(zero_periods(1), Ok(()));
        assert_eq!(zero_periods(2).map_err(|b| b.bound), Err(Bound::MinPeriod));
    }
}
