//! Live deployment: CPS on real OS threads with real ed25519 signatures,
//! injected WAN-ish delays and emulated drifting clocks.
//!
//! The exact same `CpsNode` automaton that the simulator drives runs here
//! on `crusader-runtime`'s reactor (see examples/reactor_swarm.rs for it
//! at thousand-node scale). One node is crashed from the start.
//!
//! Run with: `cargo run --release --example live_threads`

use std::time::Duration;

use crusader::core::{CpsNode, Params};
use crusader::crypto::NodeId;
use crusader::runtime::{run, RuntimeConfig};
use crusader::sim::metrics::pulse_stats;
use crusader::time::Dur;

fn main() {
    let n = 5;
    let d = Dur::from_millis(8.0);
    let u = Dur::from_millis(3.0);
    let theta = 1.01; // exaggerated drift so it is visible in a 2 s run
    let params = Params::max_resilience(n, d, u, theta);
    let derived = params.derive().expect("feasible");

    println!("live run: {n} nodes, ed25519 signatures, d = {d}, u = {u}");
    println!("  node 4 is crashed; S = {}, T = {}", derived.s, derived.t_nominal);
    println!("  running for 2 seconds of wall-clock time...\n");

    let cfg = RuntimeConfig {
        silent: vec![4],
        d,
        u,
        theta,
        max_offset: derived.s,
        run_for: Duration::from_secs(2),
        seed: 0xED25519,
        ..RuntimeConfig::new(n)
    };
    let report = run(&cfg, |me| CpsNode::new(me, params, derived));

    let honest: Vec<NodeId> = (0..4).map(NodeId::new).collect();
    let stats = pulse_stats(&report.trace, &honest);
    println!("  pulses completed by all honest nodes: {}", stats.complete_pulses);
    println!("  messages delivered by the network   : {}", report.messages_delivered);
    for (i, skew) in stats.skews.iter().enumerate() {
        println!("  pulse {:>2}: skew {}", i + 1, skew);
    }
    println!(
        "\n  max skew {} vs model bound S = {} (host scheduling jitter",
        stats.max_skew, derived.s
    );
    println!("  adds to u here — the simulator is the precise instrument;");
    println!("  this run demonstrates the deployment path end to end).");
    if !report.trace.violations.is_empty() {
        println!("  violations: {:?}", report.trace.violations);
    }
}
