//! E1 — Theorem 17 / Corollary 4: skew is Θ(u + (θ−1)d).
//!
//! Sweeps the delay uncertainty `u` at fixed `d` and `θ`, reporting the
//! measured worst-case skew of CPS at maximum resilience against the
//! derived bound `S`. Expected shape: both the bound and the measurement
//! grow linearly in `u`, and the measured skew never exceeds `S`.

use crate::cli::{Failure, SimArgs};
use crate::{header, us, Scenario};
use crusader_sim::{DelayModel, SilentAdversary};
use crusader_time::drift::DriftModel;
use crusader_time::Dur;

/// Runs the experiment (module docs): `Err` for input it cannot run
/// with, a panic for a violated shape assertion.
pub fn run(args: &SimArgs) -> Result<(), Failure> {
    let d = Dur::from_millis(1.0);
    let theta = 1.0001;
    // The sweep's largest u decides feasibility; validate against it.
    let n = args.resolve_n(8, d, Dur::from_micros(300.0), theta)?;
    let f = crusader_core::max_faults_with_signatures(n);
    println!("# E1: skew vs u   (n = {n}, f = {f}, d = {d}, θ = {theta})\n");
    header(&[
        "u (µs)",
        "S bound (µs)",
        "max skew (µs)",
        "steady skew (µs)",
        "skew/S",
        "S/u ratio",
    ]);
    for u_us in [1.0, 3.0, 10.0, 30.0, 100.0, 300.0] {
        let mut s = Scenario::new(n, d, Dur::from_micros(u_us), theta);
        s.lanes = args.lanes();
        s.delays = DelayModel::Extremal;
        s.drift = DriftModel::ExtremalSplit;
        s.pulses = 15;
        let (m, derived) = s.run_cps(Box::new(SilentAdversary));
        assert_eq!(m.pulses, 15, "liveness at u={u_us}µs");
        assert!(m.max_skew <= derived.s, "bound violated at u={u_us}µs");
        println!(
            "| {:>7.1} | {:>12} | {:>13} | {:>16} | {:>5.2} | {:>8.2} |",
            u_us,
            us(derived.s),
            us(m.max_skew),
            us(m.steady_skew),
            m.max_skew.as_secs() / derived.s.as_secs(),
            derived.s.as_micros() / u_us,
        );
    }
    println!("\nShape check: S tracks ~4u for u ≫ (θ−1)d (the S/u ratio");
    println!("stabilizes), and the measured skew always respects it.");
    Ok(())
}
