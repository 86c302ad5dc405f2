//! Supervision-layer tests: injected panic drills are contained (the
//! reactor respawns the worker that died carrying the panic), no node is
//! lost, and requeued events are never
//! lost, double-delivered or reordered — even when the inbox holds more
//! than a quantum's worth at the panic — under hand-picked and
//! property-randomized panic schedules.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crusader_core::{CpsNode, Params};
use crusader_crypto::{CarriesSignatures, NodeId};
use crusader_runtime::{run, RuntimeConfig};
use crusader_sim::metrics::pulse_stats;
use crusader_sim::{Automaton, ChaosTimeline, Context, TimerId};
use crusader_time::{Dur, LocalTime, Time};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

/// Silences the default panic-hook backtrace chatter for the injected
/// drills this suite fires on purpose; real panics still print.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.starts_with("injected fault") {
                default(info);
            }
        }));
    });
}

/// Wall-clock-feasible link bounds (the chaos catalog's values): host
/// scheduling jitter — and the milliseconds a panic unwind plus thread
/// respawn cost — must fit inside the protocol's slack, which LAN-like
/// 5 ms bounds do not leave on a shared host.
fn cps_cfg(chaos: ChaosTimeline, seed: u64) -> (RuntimeConfig, Params) {
    let d = Dur::from_millis(20.0);
    let u = Dur::from_millis(6.0);
    let params = Params::max_resilience(4, d, u, 1.01);
    let derived = params.derive().unwrap();
    let cfg = RuntimeConfig {
        n: 4,
        d,
        u,
        theta: 1.01,
        max_offset: derived.s,
        run_for: Duration::from_millis(1500),
        seed,
        workers: Some(2),
        chaos: Some(Arc::new(chaos)),
        ..RuntimeConfig::new(4)
    };
    (cfg, params)
}

/// Runs the drill scenario, retrying up to three attempts if host
/// scheduling loses a round (same policy and rationale as the chaos
/// crate's wall-clock tests: a genuine regression fails every attempt,
/// a scheduler stall does not repeat).
fn run_drill(
    cfg: &crusader_runtime::RuntimeConfig,
    params: Params,
) -> crusader_runtime::RuntimeReport {
    let derived = params.derive().unwrap();
    let mut report = run(cfg, |me| CpsNode::new(me, params, derived));
    for _ in 0..2 {
        if report.trace.violations.is_empty() {
            break;
        }
        report = run(cfg, |me| CpsNode::new(me, params, derived));
    }
    report
}

/// An injected drill on the reactor kills the worker carrying it; the
/// calling thread respawns a replacement and the clean pulse cadence of the
/// whole fleet continues — zero violations, since a drill is not a
/// protocol bug.
#[test]
fn reactor_respawns_worker_after_injected_panic() {
    quiet_injected_panics();
    let mut chaos = ChaosTimeline::new(4);
    chaos.panic_at(1, Time::from_millis(200.0));
    let (cfg, params) = cps_cfg(chaos, 17);
    let report = run_drill(&cfg, params);
    assert!(
        report.trace.violations.is_empty(),
        "{:?}",
        report.trace.violations
    );
    let everyone: Vec<NodeId> = NodeId::all(4).collect();
    let stats = pulse_stats(&report.trace, &everyone);
    assert!(
        stats.complete_pulses >= 3,
        "fleet stalled after the drill: {} pulses",
        stats.complete_pulses
    );
    let sup = report.supervision;
    assert!(sup.worker_panics >= 1, "{sup:?}");
    assert!(sup.worker_respawns >= 1, "{sup:?}");
}

/// Node 0 arms two timers for the same local time: the first sends node 1
/// a ping, the second panics (a handler bug, not a drill). Node 1 counts
/// the pings it receives.
struct TwoAlarms {
    first: Option<TimerId>,
    received: Arc<AtomicU64>,
}

impl Automaton for TwoAlarms {
    type Msg = Ping;

    fn on_init(&mut self, ctx: &mut dyn Context<Ping>) {
        if ctx.me().index() == 0 {
            let at = LocalTime::from_millis(5.0);
            self.first = Some(ctx.set_timer_at(at));
            ctx.set_timer_at(at);
        }
    }

    fn on_message(&mut self, _from: NodeId, _msg: Ping, _ctx: &mut dyn Context<Ping>) {
        self.received.fetch_add(1, Ordering::Relaxed);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<Ping>) {
        if Some(timer) == self.first {
            ctx.send(NodeId::new(1), Ping { seq: 1 });
        } else {
            panic!("second alarm broke");
        }
    }
}

/// A panic in one timer handler drops that handler's effects only: the
/// timer that fired before it in the same hand-off keeps its send, and the
/// panic is counted once and recorded as one violation.
#[test]
fn a_panicking_timer_keeps_the_sends_of_the_timers_before_it() {
    let received = Arc::new(AtomicU64::new(0));
    let cfg = RuntimeConfig {
        n: 3,
        d: Dur::from_millis(3.0),
        u: Dur::ZERO,
        theta: 1.0,
        max_offset: Dur::ZERO,
        run_for: Duration::from_millis(200),
        workers: Some(1),
        ..RuntimeConfig::new(3)
    };
    let report = run(&cfg, |_me| TwoAlarms {
        first: None,
        received: Arc::clone(&received),
    });
    assert_eq!(
        received.load(Ordering::Relaxed),
        1,
        "node 1 lost the first alarm's ping"
    );
    assert_eq!(
        report.supervision.worker_panics, 1,
        "{:?}",
        report.supervision
    );
    assert_eq!(
        report.trace.violations.len(),
        1,
        "{:?}",
        report.trace.violations
    );
    assert!(
        report.trace.violations[0].contains("handler panicked: second alarm broke"),
        "{:?}",
        report.trace.violations
    );
}

/// Pings per tick and sender. The link below has no delay uncertainty,
/// so a tick's pings share their delivery instant and land in each
/// receiver's inbox as *one* hand-off — longer than the reactor's
/// 256-event quantum, so a panic in it has a tail past the cap to requeue.
const BURST: u64 = 600;

/// Every node panics on this ping of node 0's, in its own handler: the
/// hundredth of node 0's second burst, with 500 of the same hand-off
/// still behind it. Unlike the timeline's drills, which fall where the
/// clock puts them, this one is mid-batch by construction.
const PANIC_SEQ: u64 = BURST + 100;

/// Sequence-stamped gossip for the loss and double-delivery check: every
/// node broadcasts a burst of strictly increasing sequence numbers on a
/// 10 ms cadence, and every receiver holds each sender to exactly that
/// sequence. A requeued inbox tail that lost an event, ran one twice or
/// came back out of order breaks it.
///
/// Expecting order is fair here, though the network never promised FIFO:
/// with `u = 0` every flight takes exactly `d`, one sender's commands are
/// stamped in the order it flushed them, and ties deliver in send order.
/// (The cadence is re-armed relative to the current local time, so a node
/// stalled by a respawn does not fire its backlog in one instant.)
#[derive(Debug, Clone)]
struct Ping {
    seq: u64,
}
impl CarriesSignatures for Ping {}

struct Pinger {
    seq: u64,
    ticks: u64,
    /// The last sequence number seen from each sender.
    last: Vec<u64>,
}

impl Pinger {
    fn new(n: usize) -> Self {
        Pinger {
            seq: 0,
            ticks: 0,
            last: vec![0; n],
        }
    }
}

impl Automaton for Pinger {
    type Msg = Ping;

    fn on_init(&mut self, ctx: &mut dyn Context<Ping>) {
        ctx.set_timer_at(LocalTime::from_millis(10.0));
    }

    fn on_message(&mut self, from: NodeId, msg: Ping, ctx: &mut dyn Context<Ping>) {
        let last = std::mem::replace(&mut self.last[from.index()], msg.seq);
        if msg.seq != last + 1 {
            ctx.mark_violation(format!("{from} delivered seq {} after {last}", msg.seq));
        }
        if from.index() == 0 && msg.seq == PANIC_SEQ {
            panic!("injected fault: ping {PANIC_SEQ} of node 0");
        }
    }

    fn on_timer(&mut self, _t: TimerId, ctx: &mut dyn Context<Ping>) {
        for _ in 0..BURST {
            self.seq += 1;
            ctx.broadcast(Ping { seq: self.seq });
        }
        self.ticks += 1;
        ctx.pulse(self.ticks);
        let next = ctx.local_time() + Dur::from_millis(10.0);
        ctx.set_timer_at(next);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Random panic schedules, on top of the one panic every node throws
    /// mid-batch: no node ever disappears (everyone keeps pulsing), no
    /// requeued message is lost, double-delivered or reordered (every
    /// receiver sees every sender's exact sequence), and every panic is
    /// accounted for, each by one respawned worker.
    #[test]
    fn respawn_after_panic_loses_no_node_and_no_message(
        seed in 0u64..1_000,
        // Each drill is one integer encoding (node, fire instant):
        // node = code % 4, instant = 10 ms + code / 4 ms (10..70 ms).
        drills in proptest::collection::vec(0u64..240, 0..=4),
    ) {
        quiet_injected_panics();
        let mut chaos = ChaosTimeline::new(4);
        for &code in &drills {
            #[allow(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
            chaos.panic_at((code % 4) as usize, Time::from_millis(10.0 + (code / 4) as f64));
        }
        let cfg = RuntimeConfig {
            n: 4,
            d: Dur::from_millis(3.0),
            u: Dur::ZERO,
            theta: 1.001,
            max_offset: Dur::from_millis(0.5),
            run_for: Duration::from_millis(150),
            seed,
            workers: Some(2),
            chaos: Some(Arc::new(chaos)),
            ..RuntimeConfig::new(4)
        };
        let report = run(&cfg, |_me| Pinger::new(4));
        prop_assert!(
            report.trace.violations.is_empty(),
            "{:?}",
            report.trace.violations
        );
        for i in 0..4 {
            prop_assert!(
                !report.trace.pulses[i].is_empty(),
                "node {} was lost after the drills",
                i
            );
        }
        let sup = report.supervision;
        // The drills, plus each node's own panic on `PANIC_SEQ`.
        let panics = drills.len() as u64 + 4;
        prop_assert_eq!(sup.worker_panics, panics, "{:?}", sup);
        prop_assert_eq!(sup.worker_respawns, panics, "{:?}", sup);
    }
}
