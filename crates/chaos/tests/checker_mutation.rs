//! Mutation tests for the continuous checker: build a trace that is
//! clean by construction, inject exactly one perturbation, and demand
//! the checker reports exactly that violation — right class, right
//! node, right timestamp. A checker that over-reports fails the clean
//! assertion; one that under-reports fails the mutation assertion.

use crusader_chaos::{InvariantChecker, InvariantSpec, LivenessScope};
use crusader_sim::Trace;
use crusader_time::{Dur, Time};
use proptest::collection::vec as vec_of;
use proptest::prelude::*;

/// A clean synthetic trace: `n` nodes, `rounds` pulses each, 10ms
/// period, per-node phase offsets under 1ms (so skew per round < 1ms).
fn clean_trace(n: usize, rounds: usize, offsets_us: &[u32]) -> Trace {
    let mut trace = Trace::default();
    trace.pulses = (0..n)
        .map(|v| {
            let offset = f64::from(offsets_us[v]) / 1000.0;
            (0..rounds)
                .map(|r| Time::from_millis(10.0 + 10.0 * r as f64 + offset))
                .collect()
        })
        .collect();
    trace
}

fn bare_spec() -> InvariantSpec {
    InvariantSpec {
        skew: None,
        period: None,
        min_pulses: None,
        resync: None,
        count_affected_violations: false,
    }
}

fn verdict_of(spec: InvariantSpec, trace: &Trace, horizon: Time) -> crusader_chaos::Verdict {
    let n = trace.pulses.len();
    let checker = InvariantChecker::new(spec, n, &[]);
    checker.replay_trace(trace);
    checker.finalize(horizon)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Period mutation: push one node's final pulse out past the period
    /// bound. Exactly one violation, at the mutated pulse's timestamp.
    #[test]
    fn late_pulse_trips_exactly_the_period_invariant(
        n in 2usize..5,
        rounds in 3usize..10,
        node in 0usize..5,
        offsets in vec_of(0u32..1000, 5),
        extra_ms in 11.0f64..50.0,
    ) {
        let node = node % n;
        let spec = InvariantSpec {
            period: Some((Dur::from_millis(5.0), Dur::from_millis(20.0))),
            ..bare_spec()
        };
        let horizon = Time::from_millis(10.0 * (rounds as f64 + 2.0));
        let mut trace = clean_trace(n, rounds, &offsets);
        prop_assert!(verdict_of(spec.clone(), &trace, horizon).clean());

        let last = trace.pulses[node].last_mut().unwrap();
        *last += Dur::from_millis(extra_ms);
        let mutated_at = *trace.pulses[node].last().unwrap();
        let v = verdict_of(spec, &trace, horizon);
        prop_assert_eq!(v.violations.len(), 1, "{:?}", v.violations);
        prop_assert!(v.violations[0].what.contains("period"), "{}", v.violations[0]);
        prop_assert_eq!(v.violations[0].at, mutated_at);
        prop_assert_eq!(v.violations[0].node.map(|id| id.index()), Some(node));
    }

    /// Skew mutation: delay one mid-run pulse of one node past the skew
    /// bound but well inside the period bound. Exactly one violation,
    /// timestamped at the pulse that completed the broken round.
    #[test]
    fn skewed_round_trips_exactly_the_skew_invariant(
        n in 2usize..5,
        rounds in 3usize..10,
        node in 0usize..5,
        round in 0usize..10,
        offsets in vec_of(0u32..500, 5),
        shift_ms in 3.0f64..4.5,
    ) {
        let node = node % n;
        let round = round % rounds;
        let spec = InvariantSpec { skew: Some(Dur::from_millis(2.0)), ..bare_spec() };
        let horizon = Time::from_millis(10.0 * (rounds as f64 + 2.0));
        let mut trace = clean_trace(n, rounds, &offsets);
        prop_assert!(verdict_of(spec.clone(), &trace, horizon).clean());

        // Shift < half a period keeps per-node monotonicity; > 2ms + max
        // offset breaks the round's spread.
        trace.pulses[node][round] += Dur::from_millis(shift_ms);
        let mutated_at = trace.pulses[node][round];
        let v = verdict_of(spec, &trace, horizon);
        prop_assert_eq!(v.violations.len(), 1, "{:?}", v.violations);
        prop_assert!(v.violations[0].what.contains("skew"), "{}", v.violations[0]);
        // The delayed pulse is the last of its round, so it completes the
        // aggregate and stamps the violation.
        prop_assert_eq!(v.violations[0].at, mutated_at);
    }

    /// Liveness mutation: truncate one node's tail. Exactly one deficit,
    /// reported against that node at the horizon.
    #[test]
    fn truncated_node_trips_exactly_the_liveness_invariant(
        n in 2usize..5,
        rounds in 3usize..10,
        node in 0usize..5,
        offsets in vec_of(0u32..1000, 5),
        dropped in 1usize..10,
    ) {
        let node = node % n;
        let dropped = 1 + dropped % rounds;
        let spec = InvariantSpec {
            min_pulses: Some((rounds as u64, LivenessScope::Stable)),
            ..bare_spec()
        };
        let horizon = Time::from_millis(10.0 * (rounds as f64 + 2.0));
        let mut trace = clean_trace(n, rounds, &offsets);
        prop_assert!(verdict_of(spec.clone(), &trace, horizon).clean());

        let keep = rounds - dropped;
        trace.pulses[node].truncate(keep);
        let v = verdict_of(spec, &trace, horizon);
        prop_assert_eq!(v.violations.len(), 1, "{:?}", v.violations);
        prop_assert!(v.violations[0].what.contains("liveness"), "{}", v.violations[0]);
        prop_assert_eq!(v.violations[0].at, horizon);
        prop_assert_eq!(v.violations[0].node.map(|id| id.index()), Some(node));
    }
}
