//! Reading the `2ũ/3` verdict off a merged tri-execution run.

use crusader_time::{Dur, LocalTime};

use crate::tri::{TriConfig, TriTrace};

/// The measured outcome of the Theorem 5 construction against a concrete
/// protocol implementation.
#[derive(Clone, Debug)]
pub struct LowerBoundReport {
    /// The (1-based) pulse index at which the skews are measured: the
    /// first pulse that every node generates after the fast clocks'
    /// plateau, as in the proof of Theorem 5.
    pub measurement_pulse: usize,
    /// Per execution `e`, the signed pulse-time difference
    /// `p^e_{e+1} − p^e_{e+2}` at the measurement pulse.
    pub per_execution_offset: [Dur; 3],
    /// The cyclic sum of the three offsets; the construction forces it to
    /// equal exactly `2ũ` (up to f64 rounding).
    pub cyclic_sum: Dur,
    /// Whether `cyclic_sum = 2ũ` up to the same tolerance as `holds`.
    pub cyclic_identity: bool,
    /// `max_e |p^e_{e+1} − p^e_{e+2}|` — the skew the adversary achieves
    /// in the worst of the three executions.
    pub max_skew: Dur,
    /// The theorem's bound `2ũ/3` ([`TriConfig::bound`]).
    pub bound: Dur,
    /// Whether `max_skew ≥ bound` up to `1e-12 s + 1e-9·ũ` of f64
    /// rounding — the theorem's claim.
    pub holds: bool,
    /// Whether the implied adversary was audited clean (all faulty sends
    /// at non-negative times with previously learned signatures).
    pub well_formed: bool,
}

/// Evaluates the construction's outcome.
///
/// Returns `None` if no pulse index lands fully after the plateau within
/// the recorded horizon (run longer or raise `max_pulses`).
#[must_use]
pub fn evaluate(trace: &TriTrace, cfg: &TriConfig) -> Option<LowerBoundReport> {
    // The identity H(t) = t + 2ũ/3 holds for local times ≥ θ·t*; measure
    // at the first pulse past that on every node.
    let plateau_local = LocalTime::ZERO + cfg.plateau() * cfg.theta;
    let complete = trace
        .pulse_locals
        .iter()
        .map(Vec::len)
        .min()
        .unwrap_or(0);
    let mut measurement = None;
    for r in 0..complete {
        if trace
            .pulse_locals
            .iter()
            .all(|pulses| pulses[r] >= plateau_local)
        {
            measurement = Some(r);
            break;
        }
    }
    let r = measurement?;

    let per_execution_offset: [Dur; 3] =
        std::array::from_fn(|e| trace.pulses[e][0][r] - trace.pulses[e][1][r]);
    let cyclic_sum: Dur = per_execution_offset.iter().copied().sum();
    let max_skew = per_execution_offset
        .iter()
        .map(|d| d.abs())
        .max()
        .expect("three executions");
    let bound = cfg.bound();
    let tol = Dur::from_secs(1e-12 + 1e-9 * cfg.u_tilde.as_secs());
    Some(LowerBoundReport {
        measurement_pulse: r + 1,
        per_execution_offset,
        cyclic_sum,
        cyclic_identity: (cyclic_sum - cfg.u_tilde * 2.0).abs() <= tol,
        max_skew,
        bound,
        holds: max_skew + tol >= bound,
        well_formed: trace.well_formedness_violations.is_empty(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crusader_time::Time;

    #[test]
    fn evaluate_none_when_no_pulse_past_plateau() {
        let cfg = TriConfig {
            d: Dur::from_millis(1.0),
            u_tilde: Dur::from_micros(100.0),
            theta: 1.01,
            max_pulses: 1,
            horizon: Dur::from_secs(1.0),
        };
        let trace = TriTrace {
            pulse_locals: [
                vec![LocalTime::from_secs(0.0)],
                vec![LocalTime::from_secs(0.0)],
                vec![LocalTime::from_secs(0.0)],
            ],
            pulses: std::array::from_fn(|_| [vec![Time::ZERO], vec![Time::ZERO]]),
            well_formedness_violations: Vec::new(),
            messages: 0,
        };
        assert!(evaluate(&trace, &cfg).is_none());
    }
}
