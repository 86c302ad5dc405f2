//! `sim_chaos`: the whole committed chaos catalog, rescaled to n = 32, on
//! the single-lane engine with the invariant checker riding along.

use std::sync::Arc;
use std::time::Instant;

use crusader_chaos::{
    builtin_catalog_dir, run_scenario, scenario_params, Catalog, ChaosAdversary, Executor,
    InvariantChecker, Scenario, Verdict,
};
use crusader_core::{CpsNode, RecoveringNode, RecoveryMsg};
use crusader_crypto::{KeyRing, NodeId};
use crusader_sim::metrics::{pulse_stats, resync_times};
use crusader_sim::{Adversary, DelayModel, RunObserver, SilentAdversary, SimBuilder, Trace};
use crusader_time::drift::DriftModel;
use crusader_time::Time;

use super::sim_cps::{rates_to_costs, steady_skews, trace_diff};
use super::{fill_traced, write_spans, Budget, Host, Outcome, DEFAULT_SEED};
use crate::procfs::cpu_seconds;
use crate::span::Collector;
use crate::stats::{best, median};
use crate::traced::Traced;

pub const N: usize = 32;
const SETUPS_PER_PASS: usize = 20;
const SIM: Executor = Executor::Sim {
    lanes: 1,
    force_parallel: None,
};

/// How a scenario loads the engine: the classes the per-scenario costs
/// are grouped by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// No rejoin and no flood.
    Calm,
    /// A crash window that ends, so a node goes through the rejoin
    /// handshake.
    Crash,
    /// A flood window, with a Byzantine node replaying into it.
    Flood,
}

pub fn class_of(sc: &Scenario) -> Class {
    if !sc.floods.is_empty() {
        Class::Flood
    } else if sc.crashes.iter().any(|c| c.until.is_some()) {
        Class::Crash
    } else {
        Class::Calm
    }
}

/// Loads the catalog, rescales every scenario to [`N`] nodes and reseeds
/// it. At [`DEFAULT_SEED`] the scenarios keep the seeds they were
/// committed and pinned with.
pub fn load(seed: u64) -> Vec<Scenario> {
    let catalog = Catalog::load(&builtin_catalog_dir()).expect("the committed catalog loads");
    catalog
        .scenarios
        .iter()
        .map(|sc| {
            let mut sc = sc.rescale(N).expect("every scenario fits n = 32");
            sc.seed ^= seed ^ DEFAULT_SEED;
            sc
        })
        .collect()
}

/// `run_scenario`'s simulator path with the pieces exposed that it keeps
/// to itself: the automaton (so it can be wrapped for tracing) and the
/// observer (so it can be left out).
pub fn replay(
    sc: &Scenario,
    collector: Option<&Arc<Collector>>,
    observe: bool,
) -> (Trace, Verdict) {
    let timeline = Arc::new(sc.timeline());
    let resumes: Vec<(Time, usize)> = timeline
        .crash_transitions()
        .into_iter()
        .filter(|&(at, node, down)| !down && !timeline.down(NodeId::new(node), at))
        .map(|(at, node, _)| (at, node))
        .collect();
    let checker = Arc::new(
        InvariantChecker::new(sc.invariants.clone(), sc.n, &sc.affected()).with_resumes(&resumes),
    );
    let params = scenario_params(sc);
    let derived = params.derive().expect("catalog parameters are feasible");
    let adversary: Box<dyn Adversary<RecoveryMsg>> = if sc.faulty.is_empty() {
        Box::new(SilentAdversary)
    } else {
        Box::new(ChaosAdversary::new(Arc::clone(&timeline), sc.d - sc.u))
    };
    let horizon = Time::ZERO + sc.run_for;
    let mut builder = SimBuilder::new(sc.n)
        .faulty(sc.faulty.iter().copied())
        .link(sc.d, sc.u)
        .delays(DelayModel::Random)
        .drift(DriftModel::RandomStable, sc.theta, derived.s)
        .seed(sc.seed)
        .horizon(horizon)
        .chaos(Arc::clone(&timeline));
    if observe {
        builder = builder.observer(Arc::clone(&checker) as Arc<dyn RunObserver>);
    }
    let node = |me| RecoveringNode::new(CpsNode::new(me, params, derived));
    let trace = match collector {
        None => builder.build(node, adversary).run(),
        Some(collector) => {
            let ring = KeyRing::symbolic(sc.n, sc.seed);
            builder
                .build(|me| Traced::new(node(me), me, &ring, collector), adversary)
                .run()
        }
    };
    (trace, checker.finalize(horizon))
}

/// What one scenario's replay is held to: its pinned verdict, and its
/// resync bound where it has one. Returns the worst time-to-resync, ms.
fn check(sc: &Scenario, trace: &Trace, verdict: &Verdict) -> Result<f64, String> {
    let expect_clean = sc.expect == crusader_chaos::Expectation::Clean;
    if verdict.clean() != expect_clean {
        return Err(format!(
            "{}: expected {:?}, got {} violations{}",
            sc.name,
            sc.expect,
            verdict.violations.len(),
            verdict
                .first_violation()
                .map_or(String::new(), |v| format!(", first {v}"))
        ));
    }
    let mut worst_ms: f64 = 0.0;
    for ev in resync_times(trace, &sc.timeline()) {
        if let Some(took) = ev.time_to_pulse {
            worst_ms = worst_ms.max(took.as_millis());
            if sc.invariants.resync.is_some_and(|bound| took > bound) {
                return Err(format!(
                    "{}: {} resynced in {took}, above its bound",
                    sc.name, ev.node
                ));
            }
        }
    }
    Ok(worst_ms)
}

/// Steady-state round skews of the stable nodes, over `u`.
fn steady_skews_over_u(sc: &Scenario, trace: &Trace) -> Vec<f64> {
    let affected = sc.affected();
    let stable: Vec<NodeId> = NodeId::all(sc.n)
        .filter(|v| !affected.contains(&v.index()))
        .collect();
    steady_skews(&pulse_stats(trace, &stable), sc.u).collect()
}

/// The untraced run: whole-catalog passes until `seconds` have passed.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let budget = Budget::new(seconds);
    let mut out = Outcome::default();
    let (mut setup, mut events, mut msgs) = (Vec::new(), Vec::new(), Vec::new());
    let mut per_scenario: Vec<Vec<f64>> = Vec::new();
    let mut first: Option<Vec<Trace>> = None;
    let (mut resync_max_ms, mut skews) = (0.0f64, Vec::new());
    let (cpu0, loop_start) = (cpu_seconds(), Instant::now());
    let mut last_pass_s = 0.0;
    let mut scenarios = Vec::new();
    // A pass takes seconds, so one that would overrun is not started.
    while first.is_none() || budget.fits(last_pass_s) {
        let pass_start = Instant::now();
        // The catalog is loaded several times a pass: loading is the
        // whole of this workload's set-up, and a pass is long enough to
        // leave few samples of it otherwise.
        for _ in 0..SETUPS_PER_PASS {
            let t0 = Instant::now();
            scenarios = load(seed);
            setup.push(t0.elapsed().as_secs_f64());
        }
        per_scenario.resize(scenarios.len(), Vec::new());
        let (mut pass_s, mut pass_events, mut pass_msgs) = (0.0, 0, 0);
        let mut traces = Vec::with_capacity(scenarios.len());
        for (i, sc) in scenarios.iter().enumerate() {
            let t = Instant::now();
            let outcome = run_scenario(sc, SIM);
            let took = t.elapsed().as_secs_f64();
            per_scenario[i].push(took);
            pass_s += took;
            pass_events += outcome.trace.events_processed;
            pass_msgs += outcome.trace.messages_delivered;
            let mut checked = check(sc, &outcome.trace, &outcome.verdict);
            match &first {
                None => {
                    if let Ok(worst) = checked {
                        resync_max_ms = resync_max_ms.max(worst);
                    }
                    skews.extend(steady_skews_over_u(sc, &outcome.trace));
                }
                // The simulator is deterministic: a later pass that
                // differs from the first is a failure of its own.
                Some(first) => {
                    if let Some(diff) = trace_diff(&outcome.trace, &first[i]) {
                        checked = Err(format!("{}: pass differs from the first: {diff}", sc.name));
                    }
                }
            }
            out.op(checked.map(|_| ()));
            traces.push(outcome.trace);
        }
        first.get_or_insert(traces);
        last_pass_s = pass_start.elapsed().as_secs_f64();
        events.push(pass_events as f64 / pass_s);
        msgs.push(pass_msgs as f64 / pass_s);
    }
    let cpu_share = (cpu_seconds() - cpu0) / loop_start.elapsed().as_secs_f64();
    let first = first.expect("at least one pass");
    // A run has time for half a dozen passes, and the host rarely leaves
    // a whole pass of three seconds alone. The scenarios are independent,
    // so each is taken at its own best replay and the catalog's rate is
    // all events over the sum of those.
    let fast_s: Vec<f64> = per_scenario.iter().map(|s| best(s, false)).collect();
    for class in [Class::Calm, Class::Crash, Class::Flood] {
        let (mut class_s, mut class_events) = (0.0, 0);
        for (i, sc) in scenarios.iter().enumerate() {
            if class_of(sc) == class {
                class_s += fast_s[i];
                class_events += first[i].events_processed;
            }
        }
        let name = match class {
            Class::Calm => "chaos.calm_ns_per_event",
            Class::Crash => "chaos.crash_ns_per_event",
            Class::Flood => "chaos.flood_ns_per_event",
        };
        out.set(name, class_s * 1e9 / class_events.max(1) as f64);
    }
    out.set(
        "chaos.slowest_scenario_s",
        fast_s.iter().copied().fold(0.0, f64::max),
    );
    let sum = |f: fn(&Trace) -> u64| first.iter().map(f).sum::<u64>() as f64;
    let catalog_s: f64 = fast_s.iter().sum();
    out.set_best("setup_s", setup, false);
    out.set("events_per_s", sum(|t| t.events_processed) / catalog_s);
    out.set("msgs_per_s", sum(|t| t.messages_delivered) / catalog_s);
    out.samples.push(("events_per_s", events));
    out.samples.push(("msgs_per_s", msgs));
    rates_to_costs(&mut out, cpu_share);
    out.set("skew_p50_over_u", median(&skews));
    out.set("resync_max_ms", resync_max_ms);
    out.set("sim.events", sum(|t| t.events_processed));
    out.set("sim.msgs", sum(|t| t.messages_delivered));
    out.set("sim.queue_spill_count", sum(|t| t.queue_spill_count));
    out.set(
        "sim.timer_slots_high_water",
        first
            .iter()
            .map(|t| t.timer_slots_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    out
}

/// The traced run: passes with every honest node wrapped.
pub fn run_traced(seed: u64, seconds: f64, span_file: &std::path::Path) -> Outcome {
    let budget = Budget::new(seconds);
    let collector = Collector::new();
    let scenarios = load(seed);
    let mut out = Outcome::default();
    let (mut host_s, mut events, mut deliveries) = (0.0, 0u64, 0u64);
    let mut last_pass_s = 0.0;
    while events == 0 || budget.fits(last_pass_s) {
        let pass_start = Instant::now();
        for sc in &scenarios {
            let t = Instant::now();
            let (trace, verdict) = replay(sc, Some(&collector), true);
            host_s += t.elapsed().as_secs_f64();
            events += trace.events_processed;
            deliveries += trace.messages_delivered;
            out.op(check(sc, &trace, &verdict).map(|_| ()));
        }
        last_pass_s = pass_start.elapsed().as_secs_f64();
    }
    fill_traced(&mut out, &collector, host_s, deliveries, Host::Sim);
    out.set("traced_ns_per_event", host_s * 1e9 / events as f64);
    write_spans(&mut out, &collector, span_file);
    out
}
