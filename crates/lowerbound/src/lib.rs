//! Executable lower bound: Theorem 5 of Lenzen & Loss, *Optimal Clock
//! Synchronization with Signatures* (PODC 2022).
//!
//! The theorem: for `n ≥ 3` and any `⌈n/3⌉`-secure pulse-synchronization
//! protocol `Π` with skew `S`, `E[S] ≥ 2ũ/3`, where `ũ` is the delay
//! uncertainty on links with a faulty endpoint — even with *perfect*
//! initial synchronization, *zero* uncertainty between honest nodes,
//! arbitrarily small `θ − 1`, and a static adversary.
//!
//! This crate doesn't just check the inequality against our own CPS — it
//! *executes the proof*: [`TriSim`] realizes the three mutually
//! indistinguishable executions of Section 4 against **any**
//! [`Automaton`](crusader_sim::Automaton) (CPS, Lynch–Welch, echo sync,
//! or a protocol you wrote), audits the implied adversary for model
//! compliance (Lemma 18's well-formedness: faulty sends happen at
//! non-negative times and only carry honest signatures already received),
//! and measures the forced skew, which [`evaluate`] compares against
//! `2ũ/3`.
//!
//! # Example
//!
//! ```
//! use crusader_core::{CpsNode, Params};
//! use crusader_lowerbound::{evaluate, TriConfig, TriSim};
//! use crusader_time::Dur;
//!
//! let d = Dur::from_millis(1.0);
//! let u_tilde = Dur::from_micros(200.0);
//! let theta = 1.05;
//! let cfg = TriConfig {
//!     d,
//!     u_tilde,
//!     theta,
//!     max_pulses: 8,
//!     horizon: Dur::from_secs(2.0),
//! };
//! // The victim: our own CPS, configured honestly for this network.
//! let params = Params::max_resilience(3, d, u_tilde, theta);
//! let derived = params.derive().unwrap();
//! let trace = TriSim::new(cfg, |me| CpsNode::new(me, params, derived)).run();
//! let report = evaluate(&trace, &cfg).expect("enough pulses");
//! assert!(report.holds, "skew {} below 2ũ/3 {}", report.max_skew, report.bound);
//! assert!(report.well_formed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod tri;
mod verdict;

pub use tri::{TriConfig, TriSim, TriTrace};
pub use verdict::{evaluate, LowerBoundReport};

#[cfg(test)]
mod tests {
    use crusader_baselines::EchoSyncNode;
    use crusader_core::{CpsNode, Params};
    use crusader_time::Dur;

    use super::*;

    fn cfg(u_tilde_us: f64, theta: f64) -> TriConfig {
        TriConfig {
            d: Dur::from_millis(1.0),
            u_tilde: Dur::from_micros(u_tilde_us),
            theta,
            max_pulses: 8,
            horizon: Dur::from_secs(5.0),
        }
    }

    fn run_cps(cfg: TriConfig) -> (TriTrace, LowerBoundReport) {
        let params = Params::max_resilience(3, cfg.d, cfg.u_tilde, cfg.theta);
        let derived = params.derive().unwrap();
        let trace = TriSim::new(cfg, |me| CpsNode::new(me, params, derived)).run();
        let report = evaluate(&trace, &cfg).expect("measurement pulse exists");
        (trace, report)
    }

    #[test]
    fn cps_cannot_beat_two_thirds_u_tilde() {
        let cfg = cfg(200.0, 1.05);
        let (trace, report) = run_cps(cfg);
        assert!(
            report.holds,
            "max skew {} below bound {}",
            report.max_skew,
            report.bound
        );
        assert!(
            report.well_formed,
            "adversary audit failed: {:?}",
            trace.well_formedness_violations
        );
    }

    #[test]
    fn cyclic_sum_is_exactly_two_u_tilde() {
        let cfg = cfg(200.0, 1.05);
        let (_, report) = run_cps(cfg);
        assert!(report.cyclic_identity, "cyclic sum {} ≠ 2ũ", report.cyclic_sum);
    }

    #[test]
    fn bound_scales_linearly_in_u_tilde() {
        let mut last = Dur::ZERO;
        for u_us in [50.0, 100.0, 200.0, 400.0] {
            let cfg = cfg(u_us, 1.05);
            let (_, report) = run_cps(cfg);
            assert!(report.holds, "ũ = {u_us}µs");
            assert!(
                report.max_skew > last,
                "skew must grow with ũ: {} then {}",
                last,
                report.max_skew
            );
            last = report.max_skew;
        }
    }

    #[test]
    fn construction_is_tight_for_cps() {
        // CPS is asymptotically optimal: the skew the construction forces
        // should be within a constant factor of the 2ũ/3 bound (not, say,
        // Θ(d)). Upper bound from Theorem 17: S as derived.
        let cfg = cfg(200.0, 1.05);
        let params = Params::max_resilience(3, cfg.d, cfg.u_tilde, cfg.theta);
        let derived = params.derive().unwrap();
        let (_, report) = run_cps(cfg);
        assert!(
            report.max_skew <= derived.s,
            "forced skew {} cannot exceed the upper bound {}",
            report.max_skew,
            derived.s
        );
    }

    #[test]
    fn echo_sync_also_bounded_below() {
        // The theorem is protocol-independent; run it against the
        // Srikanth-Toueg-style baseline too.
        let cfg = cfg(300.0, 1.02);
        let trace = TriSim::new(cfg, |me| {
            EchoSyncNode::new(me, 3, 1, Dur::from_millis(20.0))
        })
        .run();
        let report = evaluate(&trace, &cfg).expect("measurement pulse exists");
        assert!(
            report.holds,
            "echo sync skew {} below bound {}",
            report.max_skew,
            report.bound
        );
    }

    #[test]
    fn small_theta_still_forces_the_bound() {
        // Theorem 5 holds for θ arbitrarily close to 1 (the plateau just
        // moves out); pick a small θ and a horizon past the plateau.
        let cfg = TriConfig {
            d: Dur::from_millis(1.0),
            u_tilde: Dur::from_micros(100.0),
            theta: 1.005,
            max_pulses: 40,
            horizon: Dur::from_secs(20.0),
        };
        let (_, report) = run_cps(cfg);
        assert!(report.holds);
        assert!(report.well_formed);
    }

    #[test]
    fn plateau_and_clocks_match_property_p() {
        let cfg = cfg(150.0, 1.05);
        let plateau = cfg.plateau();
        // 2ũ/(3(θ−1)) = 2·150µs/(3·0.05) = 2 ms.
        assert!((plateau.as_millis() - 2.0).abs() < 1e-9);
        let fast = cfg.clock_in(0, 2);
        let lead = cfg.bound();
        // After the plateau the fast clock leads by exactly 2ũ/3.
        let t = crusader_time::Time::from_secs(1.0);
        assert!(
            ((fast.read(t) - crusader_time::LocalTime::ZERO) - (t.since_origin() + lead))
                .abs()
                < Dur::from_nanos(1.0)
        );
        let identity = cfg.clock_in(0, 1);
        assert_eq!(identity.read(t).as_secs(), 1.0);
    }

    #[test]
    #[should_panic(expected = "faulty in Ex0")]
    fn faulty_node_has_no_clock() {
        let cfg = cfg(100.0, 1.05);
        let _ = cfg.clock_in(0, 0);
    }
}
