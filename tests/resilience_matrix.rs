//! The resilience boundary (experiment E3 as a test): signatures buy
//! exactly the gap between `⌈n/3⌉ − 1` and `⌈n/2⌉ − 1`.
//!
//! Under the time-equivocation (stagger) attack with adversarially split
//! clock rates, Lynch–Welch converges below `n/3` faults and diverges at
//! `⌈n/3⌉`; CPS shrugs the equivalent attack off all the way to
//! `⌈n/2⌉ − 1`.

use crusader::baselines::{LwNode, TickStagger};
use crusader::core::adversary::StaggeredDealer;
use crusader::core::{
    bounds, max_faults_with_signatures, max_faults_without_signatures, CpsNode, Params,
};
use crusader::crypto::NodeId;
use crusader::sim::metrics::pulse_stats;
use crusader::sim::{DelayModel, SimBuilder};
use crusader::time::drift::DriftModel;
use crusader::time::{Dur, Time};

fn params(n: usize, f: usize) -> Params {
    Params {
        f,
        ..Params::max_resilience(n, Dur::from_millis(1.0), Dur::from_micros(10.0), 1.003)
    }
}

/// Runs a protocol under its matching stagger attack; returns
/// (early skew, late skew, bound S, violations).
fn lw_under_attack(n: usize, f: usize, pulses: u64) -> (Dur, Dur, Dur, usize) {
    let p = params(n, f);
    let derived = p.derive().unwrap();
    let faulty: Vec<usize> = (n - f..n).collect();
    let trace = SimBuilder::new(n)
        .faulty(faulty.clone())
        .link(p.d, p.u)
        .delays(DelayModel::Random)
        .drift(DriftModel::ExtremalSplit, p.theta, derived.s)
        .seed(5)
        .horizon(Time::from_secs(240.0))
        .max_pulses(pulses)
        .build(
            |me| LwNode::new(me, p, derived),
            Box::new(TickStagger::new(Dur::from_micros(300.0))),
        )
        .run();
    let honest: Vec<NodeId> = (0..n - f).map(NodeId::new).collect();
    let stats = pulse_stats(&trace, &honest);
    assert_eq!(stats.complete_pulses, pulses as usize, "LW liveness");
    (
        stats.skews[4],
        stats.skews[pulses as usize - 1],
        derived.s,
        trace.violations.len(),
    )
}

fn cps_under_attack(n: usize, f: usize, pulses: u64) {
    let p = params(n, f);
    let derived = p.derive().unwrap();
    let faulty: Vec<usize> = (n - f..n).collect();
    let trace = SimBuilder::new(n)
        .faulty(faulty)
        .link(p.d, p.u)
        .delays(DelayModel::Random)
        .drift(DriftModel::ExtremalSplit, p.theta, derived.s)
        .seed(5)
        .horizon(Time::from_secs(240.0))
        .max_pulses(pulses)
        .build(
            |me| CpsNode::new(me, p, derived),
            Box::new(StaggeredDealer::new(Dur::from_micros(300.0))),
        )
        .run();
    let honest: Vec<NodeId> = (0..n - f).map(NodeId::new).collect();
    let stats = pulse_stats(&trace, &honest);
    assert_eq!(stats.complete_pulses, pulses as usize, "CPS liveness");
    assert!(trace.violations.is_empty(), "{:?}", trace.violations);
    bounds::definition3(&stats, &derived).unwrap_or_else(|b| panic!("CPS at n={n}, f={f}: {b:?}"));
}

#[test]
fn bounds_are_the_papers() {
    assert_eq!(max_faults_without_signatures(6), 1);
    assert_eq!(max_faults_with_signatures(6), 2);
    assert_eq!(max_faults_without_signatures(12), 3);
    assert_eq!(max_faults_with_signatures(12), 5);
}

#[test]
fn lynch_welch_converges_below_one_third() {
    // n = 7, f = 2 < ⌈7/3⌉ = 3.
    let (early, late, s, violations) = lw_under_attack(7, 2, 40);
    assert_eq!(violations, 0);
    assert!(late <= s, "late skew {late} above S {s}");
    // Converged: the late skew is noise-level (well below the bound), not
    // a growing drift like the at-n/3 case below.
    assert!(
        late < s / 2.0 && early < s / 2.0,
        "skew should stay noise-level below n/3: {early} → {late} (S = {s})"
    );
}

#[test]
fn lynch_welch_diverges_at_one_third() {
    // n = 6, f = 2 = ⌈6/3⌉: the impossibility bites.
    let (early, late, s, _) = lw_under_attack(6, 2, 40);
    assert!(
        late > early && late > s,
        "expected divergence at n/3: early {early}, late {late}, S {s}"
    );
}

#[test]
fn cps_holds_at_one_third_and_beyond() {
    // Same fault fractions that break LW are routine for CPS.
    for (n, f) in [(6, 2), (7, 3), (9, 4)] {
        cps_under_attack(n, f, 40);
    }
}

#[test]
fn cps_rejects_overbudget_f_at_derive_time() {
    let p = params(6, 3); // ⌈6/2⌉ − 1 = 2 < 3
    assert!(p.derive().is_err());
}
