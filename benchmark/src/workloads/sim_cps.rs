//! `sim_mesh` and `sim_sharded`: the n = 64 CPS scenario of
//! `BENCH_cps.json`, on the single-lane engine and on the sharded one.

use std::sync::Arc;
use std::time::Instant;

use crusader_core::{max_faults_with_signatures, CpsNode, Derived, Params};
use crusader_crypto::{KeyRing, NodeId};
use crusader_sim::metrics::{pulse_stats, PulseStats};
use crusader_sim::{Automaton, DelayModel, SilentAdversary, Sim, SimBuilder, Trace};
use crusader_time::drift::DriftModel;
use crusader_time::{Dur, Time};

use super::{fill_traced, nproc, write_spans, Budget, Host, Outcome, DEFAULT_SEED};
use crate::procfs::cpu_seconds;
use crate::span::Collector;
use crate::stats::median;
use crate::traced::Traced;

pub const N: usize = 64;
const PULSES: u64 = 8;
/// Counts of the scenario at [`DEFAULT_SEED`], as `BENCH_cps.json` has them.
const PINNED_EVENTS: u64 = 511_005;
const PINNED_MSGS: u64 = 502_656;
/// Rounds before this one are the convergence prefix.
const STEADY_FROM: usize = 5;

/// Which engine runs the scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exec {
    Single,
    Sharded { lanes: usize, parallel: bool },
}

/// Lanes `sim_sharded` runs on this host.
pub fn lanes() -> usize {
    nproc().min(4)
}

impl Exec {
    /// `sim_sharded`'s executor on this host.
    pub fn sharded_for_host() -> Exec {
        Exec::Sharded {
            lanes: lanes(),
            parallel: true,
        }
    }

    pub fn run<A: Automaton>(self, sim: Sim<A>) -> Trace {
        match self {
            Exec::Single => sim.run(),
            Exec::Sharded { lanes, parallel } => {
                let mut sharded = sim.sharded(lanes);
                sharded.set_parallel(parallel);
                sharded.run()
            }
        }
    }
}

/// The scenario: n = 64, f = 31 silent, d = 1 ms, u = 10 µs, ϑ = 1.0001,
/// random delays, stable random drift, 8 pulses.
#[derive(Clone, Copy)]
pub struct Cps {
    pub params: Params,
    pub derived: Derived,
    pub seed: u64,
}

impl Cps {
    pub fn new(seed: u64) -> Self {
        let params = Params {
            n: N,
            f: max_faults_with_signatures(N),
            d: Dur::from_millis(1.0),
            u: Dur::from_micros(10.0),
            theta: 1.0001,
        };
        Cps {
            params,
            derived: params.derive().expect("the scenario is feasible"),
            seed,
        }
    }

    pub fn honest(&self) -> Vec<NodeId> {
        NodeId::all(N - self.params.f).collect()
    }

    pub fn builder(&self) -> SimBuilder {
        SimBuilder::new(N)
            .faulty(N - self.params.f..N)
            .link(self.params.d, self.params.u)
            .delays(DelayModel::Random)
            .drift(DriftModel::RandomStable, self.params.theta, self.derived.s)
            .seed(self.seed)
            .horizon(Time::from_secs(3600.0))
            .max_pulses(PULSES)
    }

    pub fn node(&self, me: NodeId) -> CpsNode {
        CpsNode::new(me, self.params, self.derived)
    }

    pub fn build(&self) -> Sim<CpsNode> {
        self.builder()
            .build(|me| self.node(me), Box::new(SilentAdversary))
    }

    pub fn build_traced(&self, collector: &Arc<Collector>) -> Sim<Traced<CpsNode>> {
        let ring = KeyRing::symbolic(N, self.seed);
        self.builder().build(
            |me| Traced::new(self.node(me), me, &ring, collector),
            Box::new(SilentAdversary),
        )
    }

    /// Checks one rep's trace against Definition 3 and Theorem 17, the
    /// pinned counts, and `reference` (the single-lane trace at this seed).
    pub fn check(&self, trace: &Trace, reference: &Trace) -> Result<(), String> {
        let stats = pulse_stats(trace, &self.honest());
        let d = &self.derived;
        if !trace.violations.is_empty() {
            return Err(format!("violations: {:?}", trace.violations));
        }
        if stats.complete_pulses != PULSES as usize {
            return Err(format!("{} of {PULSES} pulses", stats.complete_pulses));
        }
        if stats.max_skew > d.s {
            return Err(format!("skew {} above S = {}", stats.max_skew, d.s));
        }
        if stats.min_period < d.p_min || stats.max_period > d.p_max {
            return Err(format!(
                "period [{}, {}] outside [{}, {}]",
                stats.min_period, stats.max_period, d.p_min, d.p_max
            ));
        }
        if self.seed == DEFAULT_SEED
            && (trace.events_processed, trace.messages_delivered) != (PINNED_EVENTS, PINNED_MSGS)
        {
            return Err(format!(
                "{} events and {} messages at the default seed, pinned {PINNED_EVENTS} and {PINNED_MSGS}",
                trace.events_processed, trace.messages_delivered
            ));
        }
        match trace_diff(trace, reference) {
            Some(diff) => Err(format!("trace differs from sim_mesh's: {diff}")),
            None => Ok(()),
        }
    }
}

/// The first field in which two traces differ. `timer_slots_high_water`
/// and `queue_spill_count` are per-lane sums under the sharded executor
/// and are left out, as `Trace` documents.
pub fn trace_diff(a: &Trace, b: &Trace) -> Option<String> {
    if a.pulses != b.pulses {
        let node = (0..a.pulses.len().max(b.pulses.len()))
            .find(|&v| a.pulses.get(v) != b.pulses.get(v))
            .expect("some node differs");
        return Some(format!("pulses of node {node}"));
    }
    macro_rules! field {
        ($($f:ident),*) => {$(
            if a.$f != b.$f {
                return Some(format!("{}: {:?} vs {:?}", stringify!($f), a.$f, b.$f));
            }
        )*};
    }
    field!(
        violations,
        forgeries_blocked,
        messages_delivered,
        events_processed,
        finished_at,
        chaos_drops,
        chaos_duplicates
    );
    None
}

/// The skews of rounds [`STEADY_FROM`] onward, over `u`.
pub fn steady_skews(stats: &PulseStats, u: Dur) -> impl Iterator<Item = f64> + '_ {
    stats
        .skews
        .iter()
        .skip(STEADY_FROM - 1)
        .map(move |s| s.as_secs() / u.as_secs())
}

/// Fills the two costs that are the rates seen from the other side:
/// `sim.ns_per_event`, and `cpu_us_per_msg` as the CPU the loop used per
/// wall second over the messages it delivered per wall second. Taking the
/// best rep's rates for both keeps the host's slow episodes out of the
/// costs as well.
pub fn rates_to_costs(out: &mut Outcome, cpu_share: f64) {
    let events_per_s = out.get("events_per_s").expect("set before");
    let msgs_per_s = out.get("msgs_per_s").expect("set before");
    out.set("sim.ns_per_event", 1e9 / events_per_s);
    out.set("cpu_us_per_msg", cpu_share * 1e6 / msgs_per_s);
}

/// One timed rep.
struct Rep {
    setup_s: f64,
    run_s: f64,
    trace: Trace,
}

fn rep<A: Automaton>(build: impl FnOnce() -> Sim<A>, exec: Exec) -> Rep {
    let t0 = Instant::now();
    let sim = build();
    let t1 = Instant::now();
    let trace = exec.run(sim);
    Rep {
        setup_s: (t1 - t0).as_secs_f64(),
        run_s: t1.elapsed().as_secs_f64(),
        trace,
    }
}

/// The inputs of one untraced run: the scenario at `seed` and at the three
/// seeds after it, taken in turn. The seed alone moves the rate by 8 %
/// (six runs each at seeds 3 and 8: 8.51 to 8.67 M and 9.06 to 9.70 M
/// events a second, for the same 511 005 events), which is more than the
/// host does; a run over several seeds reports their mix.
const SUB_SEEDS: u64 = 4;

/// The untraced run: reps until `seconds` have passed, every one checked.
pub fn run(seed: u64, seconds: f64, exec: Exec) -> Outcome {
    let budget = Budget::new(seconds);
    let cases: Vec<Cps> = (0..SUB_SEEDS)
        .map(|k| Cps::new(seed.wrapping_add(k)))
        .collect();
    let mut out = Outcome::default();
    // Every rep is held to the single-lane trace at its seed. Computing
    // those first also warms the allocator and the sign-bytes memo, which
    // no rep after a process's first pays for again.
    let references: Vec<Trace> = cases.iter().map(|cps| cps.build().run()).collect();
    let (mut setup, mut events, mut msgs) = (Vec::new(), Vec::new(), Vec::new());
    let mut best_run_s = vec![f64::INFINITY; cases.len()];
    let (cpu0, loop_start) = (cpu_seconds(), Instant::now());
    while events.len() < cases.len() || budget.left() {
        let k = events.len() % cases.len();
        let r = rep(|| cases[k].build(), exec);
        setup.push(r.setup_s);
        best_run_s[k] = best_run_s[k].min(r.run_s);
        events.push(r.trace.events_processed as f64 / r.run_s);
        msgs.push(r.trace.messages_delivered as f64 / r.run_s);
        out.op(cases[k].check(&r.trace, &references[k]));
    }
    // CPU seconds per wall second of the loop: 1 on the single lane, more
    // where the lanes have threads of their own.
    let cpu_share = (cpu_seconds() - cpu0) / loop_start.elapsed().as_secs_f64();
    // The rates are every seed's events over every seed's best rep.
    let sum = |f: fn(&Trace) -> u64| references.iter().map(f).sum::<u64>() as f64;
    let best_s: f64 = best_run_s.iter().sum();
    out.set_best("setup_s", setup, false);
    out.set("events_per_s", sum(|t| t.events_processed) / best_s);
    out.set("msgs_per_s", sum(|t| t.messages_delivered) / best_s);
    out.samples.push(("events_per_s", events));
    out.samples.push(("msgs_per_s", msgs));
    rates_to_costs(&mut out, cpu_share);
    let u = cases[0].params.u;
    let stats: Vec<PulseStats> = cases
        .iter()
        .zip(&references)
        .map(|(cps, trace)| pulse_stats(trace, &cps.honest()))
        .collect();
    let steady: Vec<f64> = stats.iter().flat_map(|s| steady_skews(s, u)).collect();
    out.set("skew_p50_over_u", median(&steady));
    let max_skew = stats.iter().map(|s| s.max_skew).max().expect("some seed");
    out.set(
        "skew_max_over_bound",
        max_skew.as_secs() / cases[0].derived.s.as_secs(),
    );
    // The counts are those of `seed` itself, which is where they are pinned.
    let reference = &references[0];
    out.set("sim.events", reference.events_processed as f64);
    out.set("sim.msgs", reference.messages_delivered as f64);
    out.set("sim.queue_spill_count", reference.queue_spill_count as f64);
    out.set(
        "sim.timer_slots_high_water",
        reference.timer_slots_high_water as f64,
    );
    out
}

/// The traced run: the same reps with every honest node wrapped, reduced
/// to the time each layer holds. `total` is host seconds in `run()` on the
/// single lane and CPU seconds on the sharded engine, whose lanes run
/// handlers on several threads at once.
pub fn run_traced(seed: u64, seconds: f64, exec: Exec, span_file: &std::path::Path) -> Outcome {
    let budget = Budget::new(seconds);
    let cps = Cps::new(seed);
    let collector = Collector::new();
    let reference = cps.build().run();
    let mut out = Outcome::default();
    let (mut host_s, mut events, mut deliveries) = (0.0, 0u64, 0u64);
    let cpu0 = cpu_seconds();
    while events == 0 || budget.left() {
        let r = rep(|| cps.build_traced(&collector), exec);
        host_s += r.run_s;
        events += r.trace.events_processed;
        deliveries += r.trace.messages_delivered;
        // Tracing must not change what the run computes.
        out.op(cps.check(&r.trace, &reference));
    }
    let cpu_s = cpu_seconds() - cpu0;
    let total_s = match exec {
        Exec::Single => host_s,
        Exec::Sharded { .. } => cpu_s,
    };
    fill_traced(&mut out, &collector, total_s, deliveries, Host::Sim);
    out.set("traced_ns_per_event", host_s * 1e9 / events as f64);
    write_spans(&mut out, &collector, span_file);
    out
}
