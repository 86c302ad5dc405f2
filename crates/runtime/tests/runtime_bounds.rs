//! Model bounds on the wall-clock runtime: on the same scenarios the
//! simulator is checked against, the reactor must complete pulses within
//! the model's bounds.
//!
//! Wall-clock runs are not bit-deterministic (host scheduling is real),
//! so unlike the simulator's pinned trace hashes these tests pin
//! *model-level* properties: pulse liveness, violation-freedom, skew
//! bounds, and the crash-fault semantics of `silent`.

use std::time::Duration;

use crusader_core::{bounds, CpsNode, FleetNode, Params, PulseClient};
use crusader_crypto::NodeId;
use crusader_runtime::{run, RuntimeConfig, RuntimeReport};
use crusader_sim::metrics::pulse_stats;
use crusader_time::Dur;

fn cps_cfg(n: usize, silent: Vec<usize>, seed: u64) -> (RuntimeConfig, Params) {
    let d = Dur::from_millis(5.0);
    let u = Dur::from_millis(2.0);
    let params = Params::max_resilience(n, d, u, 1.01);
    let derived = params.derive().unwrap();
    let cfg = RuntimeConfig {
        silent,
        d,
        u,
        theta: 1.01,
        max_offset: derived.s,
        run_for: Duration::from_millis(700),
        seed,
        ..RuntimeConfig::new(n)
    };
    (cfg, params)
}

fn run_cps(cfg: &RuntimeConfig, params: Params) -> RuntimeReport {
    let derived = params.derive().unwrap();
    run(cfg, |me| CpsNode::new(me, params, derived))
}

/// Fault-free CPS at n = 4 completes ≥ 3 pulses, violation-free, with
/// skew under the runtime envelope [`bounds::runtime_skew`]. The silent
/// and single-worker cases are the crate's own unit tests.
#[test]
fn complete_cps_within_model_bounds() {
    let (cfg, params) = cps_cfg(4, vec![], 21);
    let derived = params.derive().unwrap();
    let report = run_cps(&cfg, params);
    let honest: Vec<NodeId> = NodeId::all(4).collect();
    let stats = pulse_stats(&report.trace, &honest);
    assert!(
        stats.complete_pulses >= 3,
        "only {} pulses: {:?}",
        stats.complete_pulses,
        report.trace.violations
    );
    assert!(
        report.trace.violations.is_empty(),
        "{:?}",
        report.trace.violations
    );
    assert!(
        stats.max_skew < bounds::runtime_skew(&params, &derived),
        "skew {} not under d + 2S",
        stats.max_skew
    );
    assert!(report.messages_delivered > 0);
}

/// Max silent faults (f = ⌈n/2⌉ − 1): the rest keep pulsing.
#[test]
fn tolerate_max_silent_faults() {
    let (cfg, params) = cps_cfg(5, vec![3, 4], 23);
    let report = run_cps(&cfg, params);
    let honest: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    let stats = pulse_stats(&report.trace, &honest);
    assert!(
        stats.complete_pulses >= 3,
        "only {} pulses: {:?}",
        stats.complete_pulses,
        report.trace.violations
    );
    // The silent nodes really stayed silent.
    assert!(report.trace.pulses[3].is_empty());
    assert!(report.trace.pulses[4].is_empty());
}

/// Regression for the duplicated-`silent` bug: a repeated or unsorted
/// index used to be counted twice in the active-node count and hang the
/// run. The harness must dedupe.
#[test]
fn duplicate_silent_indices_do_not_desynchronize_startup() {
    let (mut cfg, params) = cps_cfg(4, vec![3, 3, 3], 25);
    // Out-of-range indices are ignored too.
    cfg.silent.push(99);
    cfg.run_for = Duration::from_millis(500);
    let report = run_cps(&cfg, params);
    let honest: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    let stats = pulse_stats(&report.trace, &honest);
    assert!(
        stats.complete_pulses >= 2,
        "only {} pulses: {:?}",
        stats.complete_pulses,
        report.trace.violations
    );
    assert!(report.trace.pulses[3].is_empty());
}

/// A CPS core of `core` dealers plus `n − core` listen-only clients,
/// run for `run_for`.
fn run_fleet(core: usize, n: usize, d: Dur, u: Dur, run_for: Duration, seed: u64) -> RuntimeReport {
    let params = Params::max_resilience(core, d, u, 1.01);
    let derived = params.derive().unwrap();
    let cfg = RuntimeConfig {
        d,
        u,
        theta: 1.01,
        max_offset: derived.s,
        run_for,
        seed,
        ..RuntimeConfig::new(n)
    };
    run(&cfg, |me| {
        if me.index() < core {
            FleetNode::Core(Box::new(CpsNode::new(me, params, derived)))
        } else {
            FleetNode::Client(PulseClient::new(core, params.f))
        }
    })
}

/// The one-to-many fleet (CPS core + listen-only clients): every client
/// follows the core's pulses.
#[test]
fn fleet_clients_follow_core() {
    let n = 16;
    let (d, u) = (Dur::from_millis(5.0), Dur::from_millis(2.0));
    let report = run_fleet(4, n, d, u, Duration::from_millis(700), 27);
    let everyone: Vec<NodeId> = NodeId::all(n).collect();
    let stats = pulse_stats(&report.trace, &everyone);
    assert!(
        stats.complete_pulses >= 2,
        "fleet completed {} pulses: {:?}",
        stats.complete_pulses,
        report.trace.violations
    );
    assert!(
        report.trace.violations.is_empty(),
        "{:?}",
        report.trace.violations
    );
}

/// 192 nodes (core of 8 + 184 clients) on a handful of workers,
/// completing pulses violation-free in under a second of run time.
#[test]
fn reactor_hosts_hundreds_of_nodes() {
    let n = 192;
    let (d, u) = (Dur::from_millis(12.0), Dur::from_millis(4.0));
    let report = run_fleet(8, n, d, u, Duration::from_millis(900), 29);
    let everyone: Vec<NodeId> = NodeId::all(n).collect();
    let stats = pulse_stats(&report.trace, &everyone);
    assert!(
        stats.complete_pulses >= 1,
        "fleet completed {} pulses: {:?}",
        stats.complete_pulses,
        report.trace.violations
    );
    assert!(
        report.trace.violations.is_empty(),
        "{:?}",
        report.trace.violations
    );
}

/// What [`Bomb`] panics with.
const BOMB: &str = "boom: handler panic must be contained";

/// Keeps the default panic hook away from [`BOMB`]'s panics; every other
/// panic still goes through it. The default hook captures a backtrace
/// when `RUST_BACKTRACE` is set, and symbolizing the first one takes
/// longer than the whole 50 ms run that must see the worker respawned.
fn quiet_bombs() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            if msg != Some(BOMB) {
                default(info);
            }
        }));
    });
}

struct Bomb;

impl crusader_sim::Automaton for Bomb {
    type Msg = crusader_core::Carry;
    fn on_init(&mut self, _ctx: &mut dyn crusader_sim::Context<Self::Msg>) {
        panic!("{BOMB}");
    }
    fn on_message(
        &mut self,
        _from: NodeId,
        _msg: Self::Msg,
        _ctx: &mut dyn crusader_sim::Context<Self::Msg>,
    ) {
    }
    fn on_timer(
        &mut self,
        _timer: crusader_sim::TimerId,
        _ctx: &mut dyn crusader_sim::Context<Self::Msg>,
    ) {
    }
}

/// A handler panic on a worker is *contained*: the run completes, the
/// panic is recorded as a violation against the node and counted on the
/// supervision stats, and the worker that carried it is respawned.
#[test]
fn reactor_contains_handler_panics() {
    quiet_bombs();
    let cfg = RuntimeConfig {
        run_for: Duration::from_millis(50),
        seed: 31,
        workers: Some(1),
        ..RuntimeConfig::new(2)
    };
    let report = run(&cfg, |_me| Bomb);
    assert!(
        report
            .trace
            .violations
            .iter()
            .any(|v| v.contains("handler panicked")),
        "panic must be recorded as a violation: {:?}",
        report.trace.violations
    );
    let sup = report.supervision;
    assert!(sup.worker_panics >= 2, "both bombs counted: {sup:?}");
    assert!(sup.worker_respawns >= 1, "dead worker respawned: {sup:?}");
}
