//! Overlapping and touching crash windows, on every executor that
//! replays a chaos timeline: the simulator and the wall-clock runtime.
//! A node whose windows overlap or touch is down over their union and
//! must recover once, at the union's end.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use crusader::crypto::{CarriesSignatures, NodeId};
use crusader::runtime::{run, RuntimeConfig};
use crusader::sim::{Automaton, ChaosTimeline, Context, SilentAdversary, SimBuilder, TimerId};
use crusader::time::{Dur, Time};

const N: usize = 3;

#[derive(Clone, Debug)]
struct Silence;
impl CarriesSignatures for Silence {}

/// Counts its `on_recover` calls and pulses once per call, so the
/// simulators' traces carry the instant of each recovery.
struct Probe {
    recoveries: Arc<Mutex<u64>>,
}

impl Automaton for Probe {
    type Msg = Silence;

    fn on_init(&mut self, _ctx: &mut dyn Context<Silence>) {}

    fn on_message(&mut self, _from: NodeId, _msg: Silence, _ctx: &mut dyn Context<Silence>) {}

    fn on_timer(&mut self, _timer: TimerId, _ctx: &mut dyn Context<Silence>) {}

    fn on_recover(&mut self, ctx: &mut dyn Context<Silence>) {
        let mut count = self.recoveries.lock().unwrap();
        *count += 1;
        ctx.pulse(*count);
    }
}

fn ms(ms: f64) -> Time {
    Time::from_millis(ms)
}

/// Node 1 is down over [40, 120) ∪ [80, 160) ms (overlapping, added
/// out of order) and node 2 over [40, 100) ∪ [100, 160) ms (touching);
/// node 0 never crashes.
fn timeline() -> Arc<ChaosTimeline> {
    let mut timeline = ChaosTimeline::new(N);
    timeline.crash(1, ms(80.0), Some(ms(160.0)));
    timeline.crash(1, ms(40.0), Some(ms(120.0)));
    timeline.crash(2, ms(40.0), Some(ms(100.0)));
    timeline.crash(2, ms(100.0), Some(ms(160.0)));
    Arc::new(timeline)
}

/// One probe per node, each with the recovery count it fills in.
fn probes() -> (Vec<Arc<Mutex<u64>>>, impl FnMut(NodeId) -> Probe) {
    let counts: Vec<_> = (0..N).map(|_| Arc::default()).collect();
    let shared = counts.clone();
    let make = move |me: NodeId| Probe {
        recoveries: Arc::clone(&shared[me.index()]),
    };
    (counts, make)
}

fn recoveries(counts: &[Arc<Mutex<u64>>]) -> Vec<u64> {
    counts.iter().map(|c| *c.lock().unwrap()).collect()
}

/// Both simulators: one recovery per crashed node, at the union's end.
fn check_sim(executor: &str, counts: &[Arc<Mutex<u64>>], pulses: &[Vec<Time>]) {
    assert_eq!(recoveries(counts), [0, 1, 1], "{executor}");
    assert_eq!(
        pulses,
        [vec![], vec![ms(160.0)], vec![ms(160.0)]],
        "{executor}"
    );
}

#[test]
fn the_simulator_recovers_each_node_once() {
    let (counts, make) = probes();
    let trace = SimBuilder::new(N)
        .chaos(timeline())
        .build(make, Box::new(SilentAdversary))
        .run();
    check_sim("Sim::run", &counts, &trace.pulses);
}

#[test]
fn the_runtime_recovers_each_node_once() {
    let (counts, make) = probes();
    let cfg = RuntimeConfig {
        d: Dur::from_millis(3.0),
        u: Dur::ZERO,
        theta: 1.0,
        max_offset: Dur::ZERO,
        run_for: Duration::from_millis(250),
        workers: Some(2),
        chaos: Some(timeline()),
        ..RuntimeConfig::new(N)
    };
    let report = run(&cfg, make);
    assert_eq!(recoveries(&counts), [0, 1, 1], "runtime");
    assert!(
        report.trace.violations.is_empty(),
        "{:?}",
        report.trace.violations
    );
}
