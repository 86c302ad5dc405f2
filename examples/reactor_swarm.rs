//! A thousand-node-class deployment on the runtime's reactor: a CPS core
//! of 16 full participants serves pulses to hundreds of listen-only
//! clients (SecureTime-style one-to-many synchronization).
//!
//! Full-mesh CPS costs Θ(h²·n) deliveries per round, which is why the
//! scale deployment is a core plus clients (Θ(core²·n)): the client
//! population can grow by orders of magnitude without the per-round
//! message volume exploding. Every node — core or client — is a real
//! task on the reactor's worker pool, with its own emulated drifting
//! clock and inbox.
//!
//! Run with: `cargo run --release --example reactor_swarm [n]`

use std::time::Duration;

use crusader::core::{bounds, CpsNode, FleetNode, Params, PulseClient};
use crusader::crypto::NodeId;
use crusader::runtime::{run, RuntimeConfig};
use crusader::sim::metrics::pulse_stats;
use crusader::time::Dur;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .map_or(512, |v| v.parse().expect("n"));
    let core = 16;
    assert!(n > core, "need clients beyond the {core}-dealer core");
    let d = Dur::from_millis(120.0);
    let u = Dur::from_millis(40.0);
    let theta = 1.01;
    let params = Params::max_resilience(core, d, u, theta);
    let derived = params.derive().expect("feasible");

    println!("reactor swarm: {n} node tasks on a worker-pool event loop");
    println!(
        "  core of {core} CPS dealers (f = {}, client quorum {}), {} listen-only clients",
        params.f,
        params.f + 1,
        n - core
    );
    println!("  d = {d}, u = {u}, θ = {theta}; core S = {}", derived.s);
    println!("  running for 4 seconds of wall-clock time...\n");

    let cfg = RuntimeConfig {
        d,
        u,
        theta,
        max_offset: derived.s,
        run_for: Duration::from_secs(4),
        seed: 0x54A3, // "swarm"
        ..RuntimeConfig::new(n)
    };
    let report = run(&cfg, |me| {
        if me.index() < core {
            FleetNode::Core(Box::new(CpsNode::new(me, params, derived)))
        } else {
            FleetNode::Client(PulseClient::new(core, params.f))
        }
    });

    let everyone: Vec<NodeId> = NodeId::all(n).collect();
    let stats = pulse_stats(&report.trace, &everyone);
    println!(
        "  pulses completed by every one of the {n} nodes: {}",
        stats.complete_pulses
    );
    println!(
        "  messages delivered by the network          : {}",
        report.messages_delivered
    );
    for (i, skew) in stats.skews.iter().enumerate() {
        println!("  pulse {:>2}: fleet-wide skew {}", i + 1, skew);
    }
    println!(
        "\n  fleet skew ≈ core skew + dealer send offset + one relay hop \
         (bound S(1 + θ²) + d = {});",
        bounds::fleet_skew(&params, &derived)
    );
    if !report.trace.violations.is_empty() {
        println!("  violations: {:?}", report.trace.violations);
    }
}
