//! Executing the impossibility proof: Theorem 5's three-execution
//! construction against our own CPS implementation.
//!
//! The adversary corrupts one node of three and — by shifting clocks and
//! exploiting the reduced minimum delay `d − ũ` on its links — creates
//! three executions no honest node can tell apart. Whatever the protocol
//! does, in one of them the honest pulses are at least `2ũ/3` apart.
//!
//! The demo sweeps ũ, prints the skew forced in each execution, verifies
//! the cyclic-sum identity (= 2ũ exactly), and audits the implied
//! adversary for model compliance (Lemma 18's conditions).
//!
//! Run with: `cargo run --example lower_bound_demo`

use crusader::core::{CpsNode, Params};
use crusader::lowerbound::{evaluate, TriConfig, TriSim};
use crusader::time::Dur;

fn main() {
    let d = Dur::from_millis(1.0);
    let theta = 1.05;
    println!("Theorem 5: forced skew ≥ 2ũ/3  (n = 3, f = 1, d = {d}, θ = {theta})");
    println!(
        "\n  {:>9} | {:>11} | {:>11} | {:>11} | {:>11} | {:>10} | audit",
        "ũ", "Ex0 offset", "Ex1 offset", "Ex2 offset", "max skew", "2ũ/3"
    );
    println!("  {}", "-".repeat(92));

    // CPS itself requires u < d/2, so the sweep stops at 450 µs.
    for u_us in [50.0, 100.0, 200.0, 400.0, 450.0] {
        let u_tilde = Dur::from_micros(u_us);
        let cfg = TriConfig {
            d,
            u_tilde,
            theta,
            max_pulses: 10,
            horizon: Dur::from_secs(5.0),
        };
        let params = Params::max_resilience(3, d, u_tilde, theta);
        let derived = params.derive().expect("feasible");
        let trace = TriSim::new(cfg, |me| CpsNode::new(me, params, derived)).run();
        let report = evaluate(&trace, &cfg).expect("pulses past the plateau");
        println!(
            "  {:>9} | {:>11} | {:>11} | {:>11} | {:>11} | {:>10} | {}",
            format!("{u_tilde}"),
            format!("{}", report.per_execution_offset[0]),
            format!("{}", report.per_execution_offset[1]),
            format!("{}", report.per_execution_offset[2]),
            format!("{}", report.max_skew),
            format!("{}", report.bound),
            if report.well_formed && report.holds {
                "clean ✓"
            } else {
                "FAILED"
            },
        );
        assert!(report.cyclic_identity, "cyclic sum identity broken");
    }

    println!("\n  The three offsets always sum to 2ũ (the cyclic identity from");
    println!("  the proof), so the worst execution is at least 2ũ/3 — and CPS,");
    println!("  being optimal, lands essentially on the bound.");
    println!("\n  Consequence for system designers (Section 1): signatures only");
    println!("  help if even an attacker's links respect the minimum delay —");
    println!("  otherwise ũ, not u, is what your skew budget pays for.");
}
