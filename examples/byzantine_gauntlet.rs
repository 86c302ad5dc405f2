//! The Byzantine gauntlet: CPS versus every attack strategy in the
//! library, at full resilience `f = ⌈n/2⌉ − 1`.
//!
//! Each scenario runs the same 7-node system (3 Byzantine) under a
//! different adversary; the table reports worst-case and steady-state
//! skews against the Theorem 17 bound `S`.
//!
//! Run with: `cargo run --example byzantine_gauntlet`

use crusader::core::adversary::{RushingForwarder, StaggeredDealer};
use crusader::core::{bounds, Carry, CpsNode, Params};
use crusader::crypto::NodeId;
use crusader::sim::metrics::{pulse_stats, steady_state_skew};
use crusader::sim::{Adversary, DelayModel, SilentAdversary, SimBuilder};
use crusader::time::drift::DriftModel;
use crusader::time::{Dur, Time};

fn run_scenario(
    name: &str,
    params: Params,
    adversary: Box<dyn Adversary<Carry>>,
    delays: DelayModel,
) {
    let derived = params.derive().expect("feasible");
    let faulty: Vec<usize> = (4..7).collect();
    let trace = SimBuilder::new(params.n)
        .faulty(faulty)
        .link(params.d, params.u)
        .delays(delays)
        .drift(DriftModel::ExtremalSplit, params.theta, derived.s)
        .seed(7)
        .horizon(Time::from_secs(60.0))
        .max_pulses(15)
        .build(|me| CpsNode::new(me, params, derived), adversary)
        .run();
    let honest: Vec<NodeId> = (0..4).map(NodeId::new).collect();
    let stats = pulse_stats(&trace, &honest);
    let steady = steady_state_skew(&stats, 8).unwrap_or(stats.max_skew);
    println!(
        "  {:<22} | {:>6} | {:>12} | {:>12} | {:>6.1}% | {}",
        name,
        stats.complete_pulses,
        format!("{}", stats.max_skew),
        format!("{steady}"),
        100.0 * stats.max_skew.as_secs() / derived.s.as_secs(),
        if bounds::definition3(&stats, &derived).is_ok() {
            "within S ✓"
        } else {
            "EXCEEDED"
        }
    );
}

fn main() {
    let params = Params::max_resilience(
        7,
        Dur::from_millis(1.0),
        Dur::from_micros(20.0),
        1.0005,
    );
    let derived = params.derive().expect("feasible");
    println!("byzantine gauntlet: n = 7, f = 3, S = {}", derived.s);
    println!(
        "\n  {:<22} | pulses | {:>12} | {:>12} | % of S | verdict",
        "attack", "max skew", "steady skew"
    );
    println!("  {}", "-".repeat(92));

    run_scenario(
        "silent (crash)",
        params,
        Box::new(SilentAdversary),
        DelayModel::Random,
    );
    run_scenario(
        "silent + tilted delays",
        params,
        Box::new(SilentAdversary),
        DelayModel::Tilted,
    );
    run_scenario(
        "silent + extremal",
        params,
        Box::new(SilentAdversary),
        DelayModel::Extremal,
    );
    run_scenario(
        "rushing forwarder",
        params,
        Box::new(RushingForwarder::new()),
        DelayModel::Random,
    );
    run_scenario(
        "staggered dealers",
        params,
        Box::new(StaggeredDealer::new(Dur::from_micros(250.0))),
        DelayModel::Random,
    );
    run_scenario(
        "stagger + extremal",
        params,
        Box::new(StaggeredDealer::new(Dur::from_micros(400.0))),
        DelayModel::Extremal,
    );

    println!(
        "\n  Every strategy stays within S: the echo-rejection window of TCB"
    );
    println!("  (Lemma 11) caps what timing equivocation can achieve, and the");
    println!("  ⊥-discard rule absorbs whatever the adversary sacrifices.");
}
