//! E4 — Theorem 17's period bounds: every observed period lies within
//! [(T − (θ+1)S)/θ, T + 3S].

use crate::cli::{Failure, SimArgs};
use crate::{header, Scenario};
use crusader_core::bounds::definition3;
use crusader_sim::{DelayModel, SilentAdversary};
use crusader_time::drift::DriftModel;
use crusader_time::Dur;

/// Runs the experiment (module docs): `Err` for input it cannot run
/// with, a panic for a violated shape assertion.
pub fn run(args: &SimArgs) -> Result<(), Failure> {
    // The sweep's harshest (u, θ) pair decides feasibility.
    let n = args.resolve_n(8, Dur::from_millis(1.0), Dur::from_micros(200.0), 1.02)?;
    let f = crusader_core::max_faults_with_signatures(n);
    println!("# E4: period bounds (n = {n}, f = {f}, worst-case drift/delays)\n");
    header(&[
        "u (µs)",
        "θ",
        "Pmin bound (ms)",
        "Pmin seen (ms)",
        "Pmax seen (ms)",
        "Pmax bound (ms)",
        "within",
    ]);
    for (u_us, theta) in [
        (10.0, 1.0001),
        (50.0, 1.0005),
        (100.0, 1.001),
        (10.0, 1.01),
        (200.0, 1.02),
    ] {
        let mut s = Scenario::new(n, Dur::from_millis(1.0), Dur::from_micros(u_us), theta);
        s.delays = DelayModel::Extremal;
        s.drift = DriftModel::ExtremalSplit;
        s.pulses = 12;
        let (m, derived) = s.run_cps(Box::new(SilentAdversary));
        let ok = m.stats.complete_pulses == 12 && definition3(&m.stats, &derived).is_ok();
        println!(
            "| {:>7.1} | {:>6} | {:>14.4} | {:>13.4} | {:>13.4} | {:>14.4} | {} |",
            u_us,
            theta,
            derived.p_min.as_millis(),
            m.stats.min_period.as_millis(),
            m.stats.max_period.as_millis(),
            derived.p_max.as_millis(),
            if ok { "yes" } else { "NO" },
        );
        assert!(ok, "period bound violated");
    }
    println!("\nShape check: observed periods sit strictly inside the derived");
    println!("window; the window widens with θ (clock-rate spread) as the");
    println!("theorem predicts.");
    Ok(())
}
