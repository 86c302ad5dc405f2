//! The [`Context`] contract, checked on every executor: the simulator,
//! the Theorem 5 tri-execution engine and the wall-clock runtime run one
//! probe automaton at n = 3,
//! and every node must observe the same timer, broadcast and violation
//! semantics on each — no timer firing before the node's clock reads its
//! deadline included.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use crusader::crypto::{CarriesSignatures, NodeId};
use crusader::lowerbound::{TriConfig, TriSim};
use crusader::runtime::{run, RuntimeConfig};
use crusader::sim::{Automaton, Context, SilentAdversary, SimBuilder, TimerId};
use crusader::time::{Dur, LocalTime};

const N: usize = 3;

#[derive(Clone, Debug)]
struct Hello;
impl CarriesSignatures for Hello {}

/// What one node saw.
#[derive(Clone, Debug, Default, PartialEq)]
struct Facts {
    /// Firings of the timer armed at the local time of `on_init`.
    now_fired: u32,
    /// Whether that timer fired before `on_init` returned.
    fired_while_arming: bool,
    /// Firings of the timer armed and cancelled in `on_init`.
    cancelled_fired: u32,
    /// Firings of the timer armed in the first timer's handler, just
    /// before that handler cancels the first (already fired) timer.
    after_stale_cancel_fired: u32,
    /// Deliveries of the node's own broadcast.
    own_broadcasts: u32,
    /// Firings that found the node's clock below the timer's deadline.
    early_fires: u32,
}

/// Every node: in `on_init`, arms a timer at the current local time,
/// arms and cancels a second, arms one some 30 000 years out, broadcasts
/// once and marks one violation; when the first timer fires, arms another
/// and cancels the first.
struct Probe {
    facts: Arc<Mutex<Facts>>,
    in_init: bool,
    now: Option<TimerId>,
    cancelled: Option<TimerId>,
    after: Option<TimerId>,
    /// The local deadline of every timer armed, by id.
    deadlines: Vec<(TimerId, LocalTime)>,
}

impl Probe {
    fn arm(&mut self, ctx: &mut dyn Context<Hello>, at: LocalTime) -> TimerId {
        let id = ctx.set_timer_at(at);
        self.deadlines.push((id, at));
        id
    }
}

impl Automaton for Probe {
    type Msg = Hello;

    fn on_init(&mut self, ctx: &mut dyn Context<Hello>) {
        self.in_init = true;
        let now = ctx.local_time();
        self.now = Some(self.arm(ctx, now));
        let cancelled = self.arm(ctx, now + Dur::from_millis(1.0));
        ctx.cancel_timer(cancelled);
        self.cancelled = Some(cancelled);
        // Past every run's end, and 2⁶⁴ ns or more past the clock's start:
        // it must not fire at all.
        self.arm(ctx, LocalTime::from_secs(1e12));
        ctx.broadcast(Hello);
        ctx.mark_violation("probe".to_owned());
        self.in_init = false;
    }

    fn on_message(&mut self, from: NodeId, _msg: Hello, ctx: &mut dyn Context<Hello>) {
        if from == ctx.me() {
            self.facts.lock().unwrap().own_broadcasts += 1;
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<Hello>) {
        let facts = Arc::clone(&self.facts);
        let mut facts = facts.lock().unwrap();
        let (_, deadline) = self.deadlines.iter().find(|&&(id, _)| id == timer).unwrap();
        if ctx.local_time() < *deadline {
            facts.early_fires += 1;
        }
        if Some(timer) == self.now {
            facts.now_fired += 1;
            facts.fired_while_arming |= self.in_init;
            let after = ctx.local_time() + Dur::from_millis(2.0);
            self.after = Some(self.arm(ctx, after));
            ctx.cancel_timer(timer);
        } else if Some(timer) == self.cancelled {
            facts.cancelled_fired += 1;
        } else if Some(timer) == self.after {
            facts.after_stale_cancel_fired += 1;
        }
    }
}

/// One probe per node, each with the facts it fills in.
fn probes() -> (Vec<Arc<Mutex<Facts>>>, impl FnMut(NodeId) -> Probe) {
    let facts: Vec<_> = (0..N).map(|_| Arc::default()).collect();
    let shared = facts.clone();
    let make = move |me: NodeId| Probe {
        facts: Arc::clone(&shared[me.index()]),
        in_init: false,
        now: None,
        cancelled: None,
        after: None,
        deadlines: Vec::new(),
    };
    (facts, make)
}

/// Asserts the contract for every node; `violations` is what the
/// executor reported and `prefix` its node prefix.
fn check(
    executor: &str,
    facts: &[Arc<Mutex<Facts>>],
    violations: &[String],
    prefix: fn(NodeId) -> String,
) {
    let expected = Facts {
        now_fired: 1,
        fired_while_arming: false,
        cancelled_fired: 0,
        after_stale_cancel_fired: 1,
        own_broadcasts: 1,
        early_fires: 0,
    };
    for (v, facts) in NodeId::all(N).zip(facts) {
        assert_eq!(*facts.lock().unwrap(), expected, "{executor}: node {v}");
        let marked = format!("{}probe", prefix(v));
        let count = violations.iter().filter(|&text| *text == marked).count();
        assert_eq!(count, 1, "{executor}: node {v} in {violations:?}");
    }
    assert_eq!(violations.len(), N, "{executor}: {violations:?}");
}

fn sim_prefix(v: NodeId) -> String {
    format!("{v}: ")
}

#[test]
fn the_simulator_keeps_the_context_contract() {
    let (facts, make) = probes();
    let trace = SimBuilder::new(N)
        .build(make, Box::new(SilentAdversary))
        .run();
    check("Sim::run", &facts, &trace.violations, sim_prefix);
}

#[test]
fn the_tri_execution_engine_keeps_the_context_contract() {
    let (facts, make) = probes();
    let cfg = TriConfig {
        d: Dur::from_millis(1.0),
        u_tilde: Dur::from_micros(100.0),
        theta: 1.05,
        // The probe never pulses: the run ends when its queue drains.
        max_pulses: 1,
        horizon: Dur::from_secs(1.0),
    };
    let trace = TriSim::new(cfg, make).run();
    check("TriSim", &facts, &trace.well_formedness_violations, |v| {
        format!("protocol violation at n{}: ", v.index())
    });
}

#[test]
fn the_runtime_keeps_the_context_contract() {
    let (facts, make) = probes();
    let cfg = RuntimeConfig {
        d: Dur::from_millis(3.0),
        u: Dur::ZERO,
        theta: 1.0,
        max_offset: Dur::ZERO,
        run_for: Duration::from_millis(200),
        workers: Some(2),
        ..RuntimeConfig::new(N)
    };
    let report = run(&cfg, make);
    check("runtime", &facts, &report.trace.violations, sim_prefix);
}
