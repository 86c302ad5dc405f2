//! E2 — the drift term of Theorem 17: skew grows with (θ−1)·d.
//!
//! Sweeps θ−1 at fixed tiny u, so the (θ−1)d term dominates S. Expected
//! shape: the bound and the measured skew scale linearly in θ−1 (until
//! the feasibility region of Corollary 4 runs out near θ ≈ 1.078).

use crate::cli::{Failure, SimArgs};
use crate::{header, us, Scenario};
use crusader_core::Params;
use crusader_sim::{DelayModel, SilentAdversary};
use crusader_time::drift::DriftModel;
use crusader_time::Dur;

/// Runs the experiment (module docs): `Err` for input it cannot run
/// with, a panic for a violated shape assertion.
pub fn run(args: &SimArgs) -> Result<(), Failure> {
    let d = Dur::from_millis(1.0);
    let u = Dur::from_micros(1.0);
    // The sweep's largest θ decides feasibility; validate against it.
    let n = args.resolve_n(8, d, u, 1.07)?;
    let f = crusader_core::max_faults_with_signatures(n);
    println!(
        "# E2: skew vs θ−1   (n = {n}, f = {f}, d = {d}, u = {u}; max feasible θ = {:.4})\n",
        Params::max_feasible_theta()
    );
    header(&[
        "θ − 1",
        "S bound (µs)",
        "max skew (µs)",
        "steady skew (µs)",
        "S/((θ−1)d)",
    ]);
    for theta_minus_1 in [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 5e-2, 7e-2] {
        let theta = 1.0 + theta_minus_1;
        let mut s = Scenario::new(n, d, u, theta);
        s.lanes = args.lanes();
        s.delays = DelayModel::Extremal;
        s.drift = DriftModel::ExtremalSplit;
        s.pulses = 15;
        let (m, derived) = s.run_cps(Box::new(SilentAdversary));
        assert_eq!(m.pulses, 15, "liveness at θ={theta}");
        assert!(m.max_skew <= derived.s, "bound violated at θ={theta}");
        println!(
            "| {:>7.0e} | {:>12} | {:>13} | {:>16} | {:>10.2} |",
            theta_minus_1,
            us(derived.s),
            us(m.max_skew),
            us(m.steady_skew),
            derived.s.as_secs() / (theta_minus_1 * d.as_secs()),
        );
    }
    println!("\nShape check: the ratio S/((θ−1)d) falls as the drift term takes");
    println!("over (u-dominated rows have huge ratios), bottoms out around 10 in");
    println!("the drift-dominated regime, and diverges again as θ approaches the");
    println!("feasibility limit where the Lemma 16 denominator P(θ) → 0.");
    Ok(())
}
