//! E7 — Theorem 5: any ⌈n/3⌉-secure pulse-synchronization protocol has
//! skew ≥ 2ũ/3. The construction is executed against CPS (optimal) and
//! the echo-sync baseline; the cyclic identity Σ offsets = 2ũ is checked
//! exactly; the implied adversary is audited per Lemma 18.

use crusader_baselines::EchoSyncNode;
use crate::cli::{Failure, SimArgs};
use crusader_core::{CpsNode, Params};
use crusader_lowerbound::{evaluate, TriConfig, TriSim};
use crusader_time::Dur;

/// Runs the experiment (module docs): `Err` for input it cannot run
/// with, a panic for a violated shape assertion.
pub fn run(args: &SimArgs) -> Result<(), Failure> {
    args.require_n(
        3,
        "e7_lower_bound",
        "Theorem 5's construction is a tri-execution over exactly three nodes",
    )?;
    let d = Dur::from_millis(1.0);
    let theta = 1.05;
    println!("# E7: Theorem 5 lower bound (n = 3, f = 1, d = {d}, θ = {theta})\n");
    println!("| ũ (µs) | victim | max skew (µs) | 2ũ/3 (µs) | Σ offsets = 2ũ | audit |");
    println!("|--------|--------|---------------|-----------|----------------|-------|");
    for u_us in [50.0, 100.0, 200.0, 400.0] {
        let u_tilde = Dur::from_micros(u_us);
        let cfg = TriConfig {
            d,
            u_tilde,
            theta,
            max_pulses: 10,
            horizon: Dur::from_secs(5.0),
        };
        // Victim 1: CPS (honestly configured for ũ).
        let params = Params::max_resilience(3, d, u_tilde, theta);
        let derived = params.derive().unwrap();
        let trace = TriSim::new(cfg, |me| CpsNode::new(me, params, derived)).run();
        let r = evaluate(&trace, &cfg).expect("pulses past plateau");
        println!(
            "| {:>6.0} | cps    | {:>13.3} | {:>9.3} | {:>14} | {:>5} |",
            u_us,
            r.max_skew.as_micros(),
            r.bound.as_micros(),
            (r.cyclic_sum - u_tilde * 2.0).abs() < Dur::from_nanos(10.0),
            if r.well_formed { "clean" } else { "FAIL" },
        );
        assert!(r.holds && r.well_formed);

        // Victim 2: echo sync (already Θ(d), so far above the bound).
        let trace = TriSim::new(cfg, |me| {
            EchoSyncNode::new(me, 3, 1, Dur::from_millis(20.0))
        })
        .run();
        let r = evaluate(&trace, &cfg).expect("pulses past plateau");
        println!(
            "| {:>6.0} | echo   | {:>13.3} | {:>9.3} | {:>14} | {:>5} |",
            u_us,
            r.max_skew.as_micros(),
            r.bound.as_micros(),
            (r.cyclic_sum - u_tilde * 2.0).abs() < Dur::from_nanos(10.0),
            if r.well_formed { "clean" } else { "FAIL" },
        );
        assert!(r.holds);
    }
    println!("\nShape check: CPS's forced skew sits *on* 2ũ/3 (it is optimal);");
    println!("the bound scales linearly in ũ; the audit confirms the adversary");
    println!("never used a signature before receiving it (footnote 1 equality");
    println!("cases included).");
    Ok(())
}
