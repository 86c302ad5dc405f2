//! End-to-end rejoin: a node crashed mid-run completes the signed resync
//! handshake and returns to zero-violation pulsing within a regression
//! envelope tighter than the claimed catch-up bound
//! (`crusader_core::bounds::rejoin_catch_up`).

use std::sync::Arc;

use crusader_core::{bounds, CpsNode, Params, RecoveringNode};
use crusader_crypto::NodeId;
use crusader_sim::metrics::{pulse_stats, resync_times};
use crusader_sim::{ChaosTimeline, SilentAdversary, SimBuilder, Trace};
use crusader_time::drift::DriftModel;
use crusader_time::{Dur, Time};

fn params(n: usize) -> Params {
    Params::max_resilience(n, Dur::from_millis(1.0), Dur::from_micros(10.0), 1.0001)
}

fn run_with_chaos(n: usize, seed: u64, chaos: Arc<ChaosTimeline>) -> (Trace, Params) {
    let p = params(n);
    let derived = p.derive().unwrap();
    let trace = SimBuilder::new(n)
        .link(p.d, p.u)
        .drift(DriftModel::RandomStable, p.theta, derived.s)
        .seed(seed)
        .horizon(Time::from_secs(1.0))
        .chaos(chaos)
        .build(
            move |me| RecoveringNode::new(CpsNode::new(me, p, derived)),
            Box::new(SilentAdversary),
        )
        .run();
    (trace, p)
}

#[test]
fn crashed_node_rejoins_with_zero_violations() {
    let mut chaos = ChaosTimeline::new(4);
    chaos.crash(2, Time::from_millis(40.0), Some(Time::from_millis(160.0)));
    let chaos = Arc::new(chaos);
    let (trace, p) = run_with_chaos(4, 5, chaos.clone());

    // The whole run — including the recovered node after its rejoin — is
    // violation-free: stale timers were dropped, the index jump was
    // legitimate, and the fast-forwarded pulse landed inside the windows.
    assert!(trace.violations.is_empty(), "{:?}", trace.violations);

    let events = resync_times(&trace, &chaos);
    assert_eq!(events.len(), 1);
    assert_eq!(events[0].node, NodeId::new(2));
    let tt = events[0].time_to_pulse.expect("recovered node pulsed again");
    // A regression envelope on the shared collect window: two nominal
    // periods, tighter than the claimed bound's `2·P_max`.
    let bound = RecoveringNode::collect_window(&p) + p.derive().unwrap().t_nominal * 2.0;
    assert!(tt <= bound, "time-to-resync {tt} exceeds bound {bound}");

    // The unaffected majority kept pulsing within the skew envelope the
    // whole time.
    let others: Vec<NodeId> = [0usize, 1, 3].into_iter().map(NodeId::new).collect();
    let stats = pulse_stats(&trace, &others);
    assert_eq!(bounds::definition3(&stats, &p.derive().unwrap()), Ok(()));
    // The recovered node pulsed both before the crash and after the
    // rejoin.
    let resumed = events[0].resumed_at;
    let pulses = &trace.pulses[2];
    assert!(pulses.iter().any(|&t| t < Time::from_millis(40.0)));
    assert!(pulses.iter().any(|&t| t >= resumed));
}

#[test]
fn rejoined_node_is_back_inside_the_skew_envelope() {
    let mut chaos = ChaosTimeline::new(4);
    chaos.crash(1, Time::from_millis(50.0), Some(Time::from_millis(200.0)));
    let chaos = Arc::new(chaos);
    let (trace, p) = run_with_chaos(4, 11, chaos.clone());
    assert!(trace.violations.is_empty(), "{:?}", trace.violations);
    let derived = p.derive().unwrap();

    // k-round bound, measured: from the node's second post-recovery pulse
    // on, every pulse it emits is within S of the closest pulse of each
    // other node (positional round alignment is lost after the index
    // jump, so compare against nearest-neighbour pulses).
    let resumed = resync_times(&trace, &chaos)[0].resumed_at;
    let recovered: Vec<Time> = trace.pulses[1]
        .iter()
        .copied()
        .filter(|&t| t >= resumed)
        .collect();
    assert!(
        recovered.len() >= 3,
        "expected several post-recovery pulses, got {}",
        recovered.len()
    );
    for &t in &recovered[1..] {
        for other in [0usize, 2, 3] {
            let nearest = trace.pulses[other]
                .iter()
                .map(|&o| if o > t { o - t } else { t - o })
                .min()
                .unwrap();
            assert!(
                nearest <= derived.s,
                "post-rejoin pulse at {t} is {nearest} from node {other}'s nearest pulse (S = {})",
                derived.s
            );
        }
    }
}

#[test]
fn whole_fleet_crash_falls_back_to_free_run() {
    // Everyone down at once: nobody is left to answer a resync request,
    // so recovery must come from the retry-then-free-run fallback, and
    // liveness must return.
    let mut chaos = ChaosTimeline::new(4);
    for v in 0..4 {
        chaos.crash(v, Time::from_millis(60.0), Some(Time::from_millis(120.0)));
    }
    let chaos = Arc::new(chaos);
    let (trace, _p) = run_with_chaos(4, 23, chaos.clone());

    // Every node pulses again after the blackout.
    for ev in resync_times(&trace, &chaos) {
        assert!(
            ev.time_to_pulse.is_some(),
            "node {} never pulsed after the fleet-wide crash",
            ev.node
        );
    }
}
