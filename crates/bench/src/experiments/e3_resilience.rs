//! E3 — the resilience table: CPS tolerates ⌈n/2⌉−1 faults where
//! Lynch–Welch (no signatures) is limited to ⌈n/3⌉−1.
//!
//! For each (n, f) cell, both protocols face their matching stagger
//! attack with adversarially split clock rates. "ok" = bounded skew
//! (≤ S) and no violations over 40 pulses; "DIVERGES" = skew grew past S.

use crusader_baselines::{LwNode, TickStagger};
use crate::cli::{Failure, SimArgs};
use crate::Scenario;
use crusader_core::adversary::StaggeredDealer;
use crusader_core::{max_faults_with_signatures, max_faults_without_signatures, Params};
use crusader_sim::DelayModel;
use crusader_time::drift::DriftModel;
use crusader_time::Dur;

fn scenario(n: usize, f: usize, lanes: usize) -> (Scenario, Params) {
    let mut s = Scenario::new(n, Dur::from_millis(1.0), Dur::from_micros(10.0), 1.003);
    s.lanes = lanes;
    s.faulty = (n - f..n).collect();
    s.delays = DelayModel::Random;
    s.drift = DriftModel::ExtremalSplit;
    s.pulses = 40;
    let params = Params {
        f,
        ..Params::max_resilience(n, s.d, s.u, s.theta)
    };
    (s, params)
}

fn verdict_cps(n: usize, f: usize, lanes: usize) -> &'static str {
    if f > max_faults_with_signatures(n) {
        return "n/a";
    }
    let (s, params) = scenario(n, f, lanes);
    let derived = params.derive().unwrap();
    let m = s.run_protocol(
        derived.s,
        |me| crusader_core::CpsNode::new(me, params, derived),
        Box::new(StaggeredDealer::new(Dur::from_micros(300.0))),
    );
    if m.pulses == 40 && m.violations == 0 && m.max_skew <= derived.s {
        "ok"
    } else {
        "DIVERGES"
    }
}

fn verdict_lw(n: usize, f: usize, lanes: usize) -> &'static str {
    if f > max_faults_with_signatures(n) {
        return "n/a";
    }
    let (s, params) = scenario(n, f, lanes);
    let derived = params.derive().unwrap();
    let m = s.run_protocol(
        derived.s,
        |me| LwNode::new(me, params, derived),
        Box::new(TickStagger::new(Dur::from_micros(300.0))),
    );
    if m.pulses == 40 && m.violations == 0 && m.max_skew <= derived.s {
        "ok"
    } else {
        "DIVERGES"
    }
}

/// Runs the experiment (module docs): `Err` for input it cannot run
/// with, a panic for a violated shape assertion.
pub fn run(args: &SimArgs) -> Result<(), Failure> {
    // --n replaces the default size sweep with a single column (validated
    // for f = ceil(n/2)-1 feasibility); --lanes picks the executor.
    let ns: Vec<usize> = match args.n {
        Some(_) => {
            vec![args.resolve_n(12, Dur::from_millis(1.0), Dur::from_micros(10.0), 1.003)?]
        }
        None => vec![4, 6, 7, 9, 12],
    };
    let lanes = args.lanes();
    println!("# E3: resilience under the stagger attack (40 pulses)\n");
    println!("| n | f | ⌈n/3⌉−1 | ⌈n/2⌉−1 | Lynch–Welch | CPS |");
    println!("|---|---|---------|---------|-------------|-----|");
    for n in ns {
        for f in 1..=max_faults_with_signatures(n) {
            println!(
                "| {n} | {f} | {} | {} | {} | {} |",
                max_faults_without_signatures(n),
                max_faults_with_signatures(n),
                verdict_lw(n, f, lanes),
                verdict_cps(n, f, lanes),
            );
        }
    }
    println!("\nExpected shape: the LW column flips to DIVERGES exactly when");
    println!("f ≥ ⌈n/3⌉; the CPS column stays ok through f = ⌈n/2⌉−1.");
    Ok(())
}
