//! Cross-check proptests: the sharded executor must produce the exact
//! single-lane trace — hash-for-hash — across random seeds, system sizes,
//! lane counts, delay models, faulty-link uncertainties, adversaries
//! (passive, staggering dealer, rushing forwarder), and the three ways a
//! run stops (pulse count, horizon, event cap).
//!
//! Under the passive adversary the single-lane engine counts deliveries
//! to faulty nodes without queueing them, while the sharded executor
//! queues and pops them like any other event; these tests are what holds
//! that shortcut to the full path.
//!
//! This is the property the whole `crusader_sim::shard` design hangs on:
//! sharding is a *scheduling* change, never a behavioural one. The pinned
//! fixed-seed hashes live in `determinism.rs`; these tests sweep the
//! configuration space around them.

use crusader_bench::{trace_hash, Scenario};
use crusader_core::adversary::{RushingForwarder, StaggeredDealer};
use crusader_core::{Carry, CpsNode, Params};
use crusader_sim::{Adversary, DelayModel, SilentAdversary, Sim, SimBuilder};
use crusader_time::drift::DriftModel;
use crusader_time::{Dur, Time};
use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;

fn adversary(choice: u8) -> Box<dyn Adversary<Carry>> {
    match choice % 3 {
        0 => Box::new(SilentAdversary),
        1 => Box::new(StaggeredDealer::new(Dur::from_micros(300.0))),
        _ => Box::new(RushingForwarder::new()),
    }
}

fn delay_model(choice: u8) -> DelayModel {
    match choice % 5 {
        0 => DelayModel::Random,
        1 => DelayModel::Extremal,
        2 => DelayModel::MinAlways,
        3 => DelayModel::Tilted,
        _ => DelayModel::MaxAlways,
    }
}

fn scenario(n: usize, seed: u64, u_tilde_mult: u8, delays: u8) -> Scenario {
    let mut s = Scenario::new(n, Dur::from_millis(1.0), Dur::from_micros(10.0), 1.0005);
    s.seed = seed;
    s.pulses = 3;
    s.delays = delay_model(delays);
    if u_tilde_mult > 1 {
        s.u_tilde = Some(Dur::from_micros(10.0 * f64::from(u_tilde_mult)));
    }
    s
}

/// The run of [`scenario`] with ũ = u, built with `SimBuilder` directly so
/// that it stops on `horizon` or `max_events` instead of a pulse count.
fn cps_sim(
    n: usize,
    seed: u64,
    delays: u8,
    adv: u8,
    horizon: Time,
    max_events: u64,
) -> Sim<CpsNode> {
    let params = Params::max_resilience(n, Dur::from_millis(1.0), Dur::from_micros(10.0), 1.0005);
    let derived = params.derive().expect("feasible scenario");
    SimBuilder::new(n)
        .faulty(n - params.f..n)
        .link(params.d, params.u)
        .delays(delay_model(delays))
        .drift(DriftModel::RandomStable, params.theta, derived.s)
        .seed(seed)
        .horizon(horizon)
        .max_events(max_events)
        .build(|me| CpsNode::new(me, params, derived), adversary(adv))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Identical trace hashes over random (seed, n, lanes, ũ, delay
    /// model, adversary) — the full cross-product the engine supports.
    #[test]
    fn prop_sharded_trace_matches_single_lane(
        n in 2usize..10,
        seed in 0u64..1000,
        lanes in 2usize..6,
        u_tilde_mult in 1u8..4,
        delays in 0u8..5,
        adv in 0u8..3,
    ) {
        let single = scenario(n, seed, u_tilde_mult, delays);
        let mut sharded = single.clone();
        sharded.lanes = lanes;
        let (ts, _) = single.run_cps_trace(adversary(adv));
        let (tp, _) = sharded.run_cps_trace(adversary(adv));
        prop_assert_eq!(
            trace_hash(&ts),
            trace_hash(&tp),
            "trace diverged at n={} seed={} lanes={} ũ×{} delays={} adv={}",
            n, seed, lanes, u_tilde_mult, delays, adv
        );
    }

    /// The persistent worker pool, forced on (it would otherwise never
    /// engage on a single-CPU runner), must also be hash-identical: the
    /// pool is a scheduling change on top of a scheduling change.
    #[test]
    fn prop_worker_pool_trace_matches_single_lane(
        n in 2usize..10,
        seed in 0u64..1000,
        lanes in 2usize..6,
        u_tilde_mult in 1u8..4,
        delays in 0u8..5,
        adv in 0u8..3,
    ) {
        let single = scenario(n, seed, u_tilde_mult, delays);
        let mut pooled = single.clone();
        pooled.lanes = lanes;
        pooled.force_parallel = Some(true);
        let (ts, _) = single.run_cps_trace(adversary(adv));
        let (tp, _) = pooled.run_cps_trace(adversary(adv));
        prop_assert_eq!(
            trace_hash(&ts),
            trace_hash(&tp),
            "pooled trace diverged at n={} seed={} lanes={} ũ×{} delays={} adv={}",
            n, seed, lanes, u_tilde_mult, delays, adv
        );
    }

    /// The degenerate zero-lookahead regime (ũ = d): windows shrink to
    /// single timestamps; equivalence must survive that too.
    #[test]
    fn prop_sharded_matches_at_zero_lookahead(
        n in 2usize..8,
        seed in 0u64..1000,
        lanes in 2usize..5,
        adv in 0u8..3,
    ) {
        let mut single =
            Scenario::new(n, Dur::from_millis(1.0), Dur::from_micros(10.0), 1.0005);
        single.seed = seed;
        single.pulses = 2;
        single.u_tilde = Some(Dur::from_millis(1.0)); // ũ = d
        let mut sharded = single.clone();
        sharded.lanes = lanes;
        let (ts, _) = single.run_cps_trace(adversary(adv));
        let (tp, _) = sharded.run_cps_trace(adversary(adv));
        prop_assert_eq!(trace_hash(&ts), trace_hash(&tp));
    }

    /// Runs the horizon stops, anywhere in a round: the rule that decides
    /// which deliveries still in flight are counted.
    #[test]
    fn prop_sharded_matches_when_the_horizon_stops_the_run(
        n in 2usize..10,
        seed in 0u64..1000,
        lanes in 2usize..6,
        delays in 0u8..5,
        adv in 0u8..3,
        horizon_us in 1_000u64..20_000,
    ) {
        let horizon = Time::from_micros(horizon_us as f64);
        let single = cps_sim(n, seed, delays, adv, horizon, u64::MAX).run();
        let sharded = cps_sim(n, seed, delays, adv, horizon, u64::MAX).sharded(lanes).run();
        prop_assert_eq!(
            trace_hash(&single),
            trace_hash(&sharded),
            "trace diverged at n={} seed={} lanes={} delays={} adv={} horizon={}µs",
            n, seed, lanes, delays, adv, horizon_us
        );
    }

    /// Runs an event cap stops, on whatever event it lands — mid-round, on
    /// a delivery to a faulty node or any other: the same violation at the
    /// same instant, and the same trace.
    #[test]
    fn prop_sharded_matches_when_the_event_cap_trips(
        n in 3usize..10,
        seed in 0u64..1000,
        lanes in 2usize..6,
        delays in 0u8..5,
        adv in 0u8..3,
        percent in 1u64..100,
    ) {
        let horizon = Time::from_millis(20.0);
        let total = cps_sim(n, seed, delays, adv, horizon, u64::MAX).run().events_processed;
        let cap = total * percent / 100;
        let single = cps_sim(n, seed, delays, adv, horizon, cap).run();
        let sharded = cps_sim(n, seed, delays, adv, horizon, cap).sharded(lanes).run();
        let case = format!("n={n} seed={seed} lanes={lanes} delays={delays} adv={adv} cap={cap}");
        prop_assert!(
            single.violations.iter().any(|v| v == "event cap exceeded"),
            "{}: {:?}", case, single.violations
        );
        prop_assert_eq!(&single.violations, &sharded.violations, "{}", case);
        prop_assert_eq!(single.finished_at, sharded.finished_at, "{}", case);
        prop_assert_eq!(trace_hash(&single), trace_hash(&sharded), "{}", case);
    }
}
