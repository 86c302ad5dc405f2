//! Wall-clock deployment runtime for `crusader` protocols.
//!
//! Where `crusader-sim` is the adversarial laboratory (deterministic,
//! model-exact, audit-enforced), this crate is the deployment path:
//! crossbeam channels as links, a delay-injecting network thread
//! enforcing `[d − u, d]` flight times, per-node emulated drifting
//! clocks, and signatures through `crusader-crypto`'s
//! `KeyRing::ed25519`: `ed25519-dalek`'s type surface over the vendored
//! keyed-hash MAC, not real Ed25519 (see `vendor/README.md`; making it
//! real is ROADMAP item 13).
//!
//! One executor drives the nodes, an event-driven worker-pool reactor
//! (`src/reactor.rs`): N node state machines multiplexed as non-blocking
//! tasks onto M long-lived worker threads, with per-node inboxes, a
//! ready-queue scheduler that parks idle workers, and one tick-keyed
//! [time queue](wheel) on the network thread holding every message in
//! flight, every node's next `SetTimer` wake-up and every chaos control
//! event — thousands of nodes on M + 1 threads, supervised by
//! the thread that called [`run`]. Every node's handlers run through
//! one protocol core (`src/node.rs`: handler dispatch, timer
//! bookkeeping, pulse logging), and
//! `tests/runtime_bounds.rs` holds runs to the model bounds.
//!
//! The same [`Automaton`](crusader_sim::Automaton) implementations run
//! unchanged in both worlds; the runtime exists to demonstrate that the
//! protocol code is genuinely runtime-agnostic and to measure end-to-end
//! behaviour with real threads and a signature path of the same shape as
//! Ed25519's (the MAC stand-in's costs are not Ed25519's).
//!
//! Host scheduling jitter is physically indistinguishable from message
//! delay, so it effectively inflates `u`: configure millisecond-scale
//! `d`/`u` (WAN-like), not microseconds, and treat skew numbers from this
//! runtime as environment-dependent. The runtime's own grid adds to the
//! same budget: the network thread delivers and fires timer wakes on
//! one tick — at most `u/64`, clamped to `[50 µs, 1 ms]`. A timer wake
//! is up to one tick late. A delivery is rounded *up* to the grid after
//! a flight drawn from `[d − u, d − tick]`, so it stays inside
//! `[d − u, d]` whenever `u` is at least one tick; for a smaller `u`
//! (under 50 µs, `u = 0` included) it is never early and overshoots `d`
//! by less than one tick, which is the kernel's own timer slack. All
//! bound-checking experiments use the simulator.
//!
//! # Example
//!
//! ```no_run
//! use std::time::Duration;
//! use crusader_core::{CpsNode, Params};
//! use crusader_runtime::{run, RuntimeConfig};
//! use crusader_time::Dur;
//!
//! let d = Dur::from_millis(5.0);
//! let u = Dur::from_millis(2.0);
//! let params = Params::max_resilience(4, d, u, 1.01);
//! let derived = params.derive().unwrap();
//! let cfg = RuntimeConfig {
//!     n: 4,
//!     silent: vec![3],
//!     d,
//!     u,
//!     theta: 1.01,
//!     max_offset: derived.s,
//!     run_for: Duration::from_millis(500),
//!     seed: 42,
//!     workers: None, // available_parallelism()
//!     ..RuntimeConfig::new(4)
//! };
//! let report = run(&cfg, |me| CpsNode::new(me, params, derived));
//! println!("delivered {} messages", report.messages_delivered);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod harness;
mod net;
mod node;
mod reactor;
mod supervise;
pub mod wheel;

pub use clock::EmulatedClock;
pub use harness::{run, Backend, RuntimeConfig, RuntimeReport};
pub use net::NodeEvent;
pub use supervise::SupervisionStats;

use crusader_time::Dur;

/// The tick, in nanoseconds, of the one grid the runtime keeps time on:
/// the network thread's time queue delivers messages, fires wake-ups and
/// injects chaos control events on it. Fine enough that being up to one tick late is small
/// against the delay uncertainty `u` (protocol deadlines compound two or
/// three timer hops, so lateness must be ≪ the slack `u` provides),
/// coarse enough that neither thread spins and that a tick's deliveries
/// are worth a wake-up: `min(u, d)/64`, clamped to `[50 µs, 1 ms]`.
pub(crate) fn tick_ns(u: Dur, d: Dur) -> u64 {
    whole_nanos(u.min(d) / 64.0).clamp(50_000, 1_000_000)
}

/// `dur` in whole nanoseconds; a negative one is zero.
pub(crate) fn whole_nanos(dur: Dur) -> u64 {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    {
        dur.as_nanos().max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use crusader_baselines::EchoSyncNode;
    use crusader_core::{bounds, CpsNode, Params};
    use crusader_crypto::NodeId;
    use crusader_sim::metrics::pulse_stats;
    use crusader_time::Dur;

    use super::*;

    fn cps_cfg(silent: Vec<usize>, seed: u64) -> (RuntimeConfig, Params) {
        let d = Dur::from_millis(5.0);
        let u = Dur::from_millis(2.0);
        let params = Params::max_resilience(4, d, u, 1.01);
        let derived = params.derive().unwrap();
        let cfg = RuntimeConfig {
            silent,
            d,
            u,
            theta: 1.01,
            max_offset: derived.s,
            run_for: Duration::from_millis(700),
            seed,
            ..RuntimeConfig::new(4)
        };
        (cfg, params)
    }

    /// ≥ 3 complete pulses among the first `honest_n` nodes, with skew under
    /// the runtime envelope [`bounds::runtime_skew`]. Violations are not
    /// asserted: with a node silent, one honest dealer delayed by the host
    /// past its window gives a second ⊥ and trips the `f` budget.
    fn assert_cps_pulses(cfg: &RuntimeConfig, params: Params, honest_n: usize) {
        let derived = params.derive().unwrap();
        let report = run(cfg, |me| CpsNode::new(me, params, derived));
        let honest: Vec<NodeId> = (0..honest_n).map(NodeId::new).collect();
        let stats = pulse_stats(&report.trace, &honest);
        assert!(
            stats.complete_pulses >= 3,
            "only {} pulses: {:?}",
            stats.complete_pulses,
            report.trace.violations
        );
        assert!(
            stats.max_skew < bounds::runtime_skew(&params, &derived),
            "skew {} not under d + 2S",
            stats.max_skew
        );
        assert!(report.messages_delivered > 0);
    }

    #[test]
    fn cps_survives_silent_fault_on_the_reactor() {
        let (cfg, params) = cps_cfg(vec![3], 11);
        assert_cps_pulses(&cfg, params, 3);
    }

    #[test]
    fn reactor_with_one_worker_still_pulses() {
        let (mut cfg, params) = cps_cfg(vec![], 13);
        cfg.workers = Some(1);
        assert_cps_pulses(&cfg, params, 4);
    }

    #[test]
    fn echo_sync_runs_on_the_runtime_too() {
        let cfg = RuntimeConfig {
            theta: 1.001,
            max_offset: Dur::from_millis(2.0),
            run_for: Duration::from_millis(600),
            seed: 3,
            ..RuntimeConfig::new(4)
        };
        let report = run(&cfg, |me| {
            EchoSyncNode::new(me, 4, 1, Dur::from_millis(50.0))
        });
        let honest: Vec<NodeId> = NodeId::all(4).collect();
        let stats = pulse_stats(&report.trace, &honest);
        assert!(stats.complete_pulses >= 2);
    }
}
