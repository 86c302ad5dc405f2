//! E10 — runtime scale: CPS deployments on the wall-clock runtime's
//! event-driven reactor.
//!
//! Unlike e1–e9 this is not a paper reproduction but a deployment
//! experiment: real OS threads, real ed25519 signatures, injected
//! `[d − u, d]` delays, drifting emulated clocks. At n ≤ 64 the run is a
//! full CPS mesh with maximum silent faults; past that it is the
//! SecureTime-style one-to-many fleet (a CPS core of 32 dealers plus
//! listen-only `PulseClient`s), because full-mesh CPS is `Θ(h²·n)`
//! messages per round and physically cannot scale to thousands of nodes
//! on one host (see [`crate::snapshot`]'s module docs).
//!
//! The run **asserts** liveness and safety — at least one pulse
//! completed by every active node, zero violations — so a clean exit is
//! itself a reproduction result, which is exactly what the CI
//! runtime-scale smoke step relies on (`--n 512`, `--n 2048`).
//!
//! ```text
//! experiments e10_runtime_scale [--n N] [--workers W]
//! ```

use crate::cli::{Failure, SimArgs};
use crate::snapshot::{run_runtime, runtime_scenario};

/// Runs the experiment (module docs): `Err` for input it cannot run
/// with, a panic for a violated shape assertion.
pub fn run(args: &SimArgs) -> Result<(), Failure> {
    let n = args.n.unwrap_or(64);
    let (cfg, core, params) = runtime_scenario(n);
    let workload = if core == n {
        format!("full CPS mesh, f = {} silent", cfg.silent.len())
    } else {
        format!("CPS core of {core} + {} listen-only clients", n - core)
    };
    println!("# E10: runtime scale   (n = {n})\n");
    println!("  workload : {workload}");
    println!(
        "  link     : d = {}, u = {}, θ = {} (WAN-scale; host jitter adds to u)",
        cfg.d, cfg.u, cfg.theta
    );
    println!(
        "  core     : f = {} (quorum {}), S = {}",
        params.f,
        params.f + 1,
        params.derive().expect("feasible").s
    );
    println!("  duration : {:.1} s of wall-clock time\n", cfg.run_for.as_secs_f64());

    let outcome = run_runtime(n, args.workers);
    crate::header(&["pulses", "messages", "msg/s", "violations"]);
    println!(
        "| {} | {} | {:.0} | {} |",
        outcome.pulses,
        outcome.messages,
        outcome.messages as f64 / outcome.run_secs,
        outcome.violations.len()
    );
    // How well the message path batches, as ratios of counts (a
    // broadcast is one message in its command and n deliveries out).
    let sup = outcome.supervision;
    println!(
        "\n  deliveries per inbox hand-off : {:.1}   ({} hand-offs)",
        outcome.messages as f64 / sup.inbox_handoffs.max(1) as f64,
        sup.inbox_handoffs
    );
    println!(
        "  deliveries per net command    : {:.1}   ({} commands, one per flush)",
        outcome.messages as f64 / sup.net_commands.max(1) as f64,
        sup.net_commands
    );
    for v in &outcome.violations {
        eprintln!("  violation: {v}");
    }

    assert!(
        outcome.pulses >= 1,
        "liveness: no pulse completed by every active node at n = {n}"
    );
    assert!(
        outcome.violations.is_empty(),
        "safety: {} violations at n = {n}",
        outcome.violations.len()
    );
    println!(
        "\nall active nodes pulsed {} time(s), violation-free ✓",
        outcome.pulses
    );
    Ok(())
}
