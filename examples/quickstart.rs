//! Quickstart: synchronize 8 clocks with 3 of them Byzantine (silent).
//!
//! Demonstrates the headline result — CPS holds skew `≤ S ∈ Θ(u + (θ−1)d)`
//! at resilience `f = ⌈n/2⌉ − 1 = 3`, which no signature-free protocol can
//! tolerate at all (their limit is `⌈8/3⌉ − 1 = 2`).
//!
//! Run with: `cargo run --example quickstart`

use crusader::core::{bounds, CpsNode, Params};
use crusader::crypto::NodeId;
use crusader::sim::metrics::pulse_stats;
use crusader::sim::{DelayModel, SilentAdversary, SimBuilder};
use crusader::time::drift::DriftModel;
use crusader::time::{Dur, Time};

fn main() {
    let n = 8;
    let params = Params::max_resilience(
        n,
        Dur::from_millis(1.0),  // d: max end-to-end delay
        Dur::from_micros(20.0), // u: delay uncertainty
        1.0005,                 // θ: clocks drift up to 500 ppm
    );
    let derived = params.derive().expect("feasible parameters");

    println!("crusader pulse synchronization — quickstart");
    println!("  n = {n}, f = {} (Byzantine: nodes 5, 6, 7, silent)", params.f);
    println!(
        "  d = {}, u = {}, θ = {}",
        params.d, params.u, params.theta
    );
    println!(
        "  derived: S = {}, T = {}, δ = {}",
        derived.s, derived.t_nominal, derived.delta
    );
    println!(
        "  guaranteed periods: Pmin = {}, Pmax = {}",
        derived.p_min, derived.p_max
    );

    let trace = SimBuilder::new(n)
        .faulty([5, 6, 7])
        .link(params.d, params.u)
        .delays(DelayModel::Random)
        .drift(DriftModel::RandomStable, params.theta, derived.s)
        .seed(2022)
        .horizon(Time::from_secs(30.0))
        .max_pulses(20)
        .build(
            |me| CpsNode::new(me, params, derived),
            Box::new(SilentAdversary),
        )
        .run();

    let honest: Vec<NodeId> = (0..5).map(NodeId::new).collect();
    let stats = pulse_stats(&trace, &honest);

    println!("\n  pulse |      skew | vs bound S");
    println!("  ------+-----------+-----------");
    for (i, skew) in stats.skews.iter().enumerate() {
        println!(
            "  {:>5} | {:>9} | {:>8.1}%",
            i + 1,
            format!("{skew}"),
            100.0 * skew.as_secs() / derived.s.as_secs()
        );
    }
    println!("\n  max skew    : {} (bound S = {})", stats.max_skew, derived.s);
    println!(
        "  periods     : [{}, {}] (bounds [{}, {}])",
        stats.min_period, stats.max_period, derived.p_min, derived.p_max
    );
    println!("  messages    : {}", trace.messages_delivered);
    println!("  violations  : {}", trace.violations.len());
    bounds::definition3(&stats, &derived).expect("Theorem 17 violated?!");
    println!("\n  ✓ skew stayed within the Theorem 17 bound throughout");
}
