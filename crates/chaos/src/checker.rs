//! Continuous invariant checking over a live run.
//!
//! [`InvariantChecker`] implements [`RunObserver`], so it rides inside
//! both executors: the simulator calls it from the sequential event
//! loop (single-lane) or the reconcile phase (sharded) in identical
//! event order, the runtime from whichever worker thread produced the
//! pulse. Every predicate is evaluated **per event**, so a violation
//! carries the timestamp of the exact pulse that broke the invariant —
//! not a post-hoc "somewhere in this trace" verdict.
//!
//! The fault-budget policy: protocol violations from *affected* nodes
//! (Byzantine, crashed at any point, or declared affected by the
//! scenario — e.g. the isolated side of a partition) are tolerated and
//! only counted, because a node rejoining from arbitrary state is
//! *expected* to complain while it resynchronizes. Scenarios probing
//! exactly that recovery noise flip `count_affected_violations` and the
//! tolerance disappears.

use std::collections::BTreeMap;

use crusader_crypto::NodeId;
use crusader_sim::{RunObserver, Trace, BLOCKED_FORGERY_PREFIX};
use crusader_time::{Dur, Time};
use parking_lot::Mutex;

use crate::scenario::{InvariantSpec, LivenessScope};

/// One invariant breach, with the timestamp of the event that tripped it.
#[derive(Clone, Debug, PartialEq)]
pub struct InvariantViolation {
    /// Scenario time of the offending event (for liveness deficits, the
    /// horizon at which the deficit became final).
    pub at: Time,
    /// The offending node, when attributable.
    pub node: Option<NodeId>,
    /// What was violated.
    pub what: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.node {
            Some(v) => write!(f, "[{:.6}s] {v}: {}", self.at.as_secs(), self.what),
            None => write!(f, "[{:.6}s] {}", self.at.as_secs(), self.what),
        }
    }
}

/// The checker's conclusion about a run.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Invariant violations, in the order observed (time order on the
    /// simulator).
    pub violations: Vec<InvariantViolation>,
    /// Protocol violations from affected nodes that the fault budget
    /// absorbed.
    pub tolerated: u64,
}

impl Verdict {
    /// `true` when no invariant was violated.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The earliest violation by timestamp.
    #[must_use]
    pub fn first_violation(&self) -> Option<&InvariantViolation> {
        self.violations.iter().min_by(|a, b| {
            a.at.partial_cmp(&b.at)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }
}

/// Per-round skew aggregation across the stable population.
#[derive(Clone, Copy, Debug)]
struct RoundAgg {
    seen: usize,
    min: Time,
    max: Time,
}

#[derive(Debug)]
struct State {
    /// Last `(index, at)` pulse per node.
    last_pulse: Vec<Option<(u64, Time)>>,
    /// Total pulses per node.
    pulse_counts: Vec<u64>,
    /// Open per-round skew aggregates (stable nodes only); an entry is
    /// dropped once every stable node contributed.
    rounds: BTreeMap<u64, RoundAgg>,
    /// Per-node recovery instants not yet answered by a pulse, in time
    /// order; consumed by the resync predicate.
    pending_resumes: Vec<std::collections::VecDeque<Time>>,
    violations: Vec<InvariantViolation>,
    tolerated: u64,
    finalized: bool,
}

/// A continuous invariant checker; see the module docs.
#[derive(Debug)]
pub struct InvariantChecker {
    spec: InvariantSpec,
    /// `true` for nodes covered by skew/period/liveness predicates.
    stable: Vec<bool>,
    stable_count: usize,
    state: Mutex<State>,
}

impl InvariantChecker {
    /// A checker for an `n`-node run where `affected` lists the nodes
    /// outside the stable population (see the module docs for policy).
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range affected index.
    #[must_use]
    pub fn new(spec: InvariantSpec, n: usize, affected: &[usize]) -> Self {
        let mut stable = vec![true; n];
        for &i in affected {
            stable[i] = false;
        }
        let stable_count = stable.iter().filter(|&&s| s).count();
        InvariantChecker {
            spec,
            stable,
            stable_count,
            state: Mutex::new(State {
                last_pulse: vec![None; n],
                pulse_counts: vec![0; n],
                rounds: BTreeMap::new(),
                pending_resumes: vec![std::collections::VecDeque::new(); n],
                violations: Vec::new(),
                tolerated: 0,
                finalized: false,
            }),
        }
    }

    /// Arms the resync predicate with the run's recovery schedule:
    /// `(instant, node)` pairs at which a crashed node comes back up
    /// (see `ChaosTimeline::crash_transitions`). Combined with
    /// `invariant resync_ms`, every listed recovery must be answered by
    /// a pulse of that node within the bound; without a bound the
    /// schedule is inert.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range node index.
    #[must_use]
    pub fn with_resumes(self, resumes: &[(Time, usize)]) -> Self {
        {
            let mut st = self.state.lock();
            let mut sorted = resumes.to_vec();
            sorted.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.1.cmp(&b.1))
            });
            for &(at, node) in &sorted {
                st.pending_resumes[node].push_back(at);
            }
        }
        self
    }

    /// Closes the run at `horizon`: evaluates the liveness predicate and
    /// returns the final verdict. Idempotent — later calls return the
    /// same verdict without re-adding deficits.
    #[must_use]
    pub fn finalize(&self, horizon: Time) -> Verdict {
        let mut st = self.state.lock();
        if !st.finalized {
            st.finalized = true;
            if let Some(bound) = self.spec.resync {
                for i in 0..st.pending_resumes.len() {
                    while let Some(resumed) = st.pending_resumes[i].pop_front() {
                        if horizon - resumed > bound {
                            st.violations.push(InvariantViolation {
                                at: horizon,
                                node: Some(NodeId::new(i)),
                                what: format!(
                                    "resync: no pulse within {:.3}ms of the recovery \
                                     at {:.6}s",
                                    bound.as_millis(),
                                    resumed.as_secs()
                                ),
                            });
                        }
                    }
                }
            }
            if let Some((min_pulses, scope)) = self.spec.min_pulses {
                for (i, &count) in st.pulse_counts.clone().iter().enumerate() {
                    let covered = match scope {
                        LivenessScope::Stable => self.stable[i],
                        LivenessScope::All => true,
                    };
                    if covered && count < min_pulses {
                        st.violations.push(InvariantViolation {
                            at: horizon,
                            node: Some(NodeId::new(i)),
                            what: format!(
                                "liveness: {count} pulses by the horizon, need {min_pulses}"
                            ),
                        });
                    }
                }
            }
        }
        Verdict {
            violations: st.violations.clone(),
            tolerated: st.tolerated,
        }
    }

    /// A snapshot of the violations observed so far, without closing the
    /// run (no liveness evaluation).
    #[must_use]
    pub fn snapshot(&self) -> Verdict {
        let st = self.state.lock();
        Verdict {
            violations: st.violations.clone(),
            tolerated: st.tolerated,
        }
    }

    /// Replays a finished [`Trace`]'s pulses through the checker in
    /// global time order, as if observed live. Used to check recorded
    /// traces and by the mutation tests; protocol violations carry no
    /// timestamps in a trace, so only the pulse-driven predicates
    /// (ordering, period, skew) and — via [`finalize`] — liveness are
    /// exercised.
    ///
    /// [`finalize`]: Self::finalize
    pub fn replay_trace(&self, trace: &Trace) {
        let mut events: Vec<(Time, usize, u64)> = trace
            .pulses
            .iter()
            .enumerate()
            .flat_map(|(node, times)| {
                times
                    .iter()
                    .enumerate()
                    .map(move |(i, &at)| (at, node, i as u64 + 1))
            })
            .collect();
        events.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        for (at, node, index) in events {
            self.on_pulse(NodeId::new(node), index, at);
        }
    }
}

impl RunObserver for InvariantChecker {
    fn on_pulse(&self, node: NodeId, index: u64, at: Time) {
        let i = node.index();
        let mut st = self.state.lock();
        st.pulse_counts[i] += 1;
        let prev = st.last_pulse[i].replace((index, at));
        // Time-to-resync rides on *recovered* nodes, which are affected
        // by definition — so it is evaluated before the stable cut.
        if let Some(bound) = self.spec.resync {
            while st.pending_resumes[i].front().is_some_and(|&r| r <= at) {
                let resumed = st.pending_resumes[i].pop_front().expect("checked front");
                if at - resumed > bound {
                    st.violations.push(InvariantViolation {
                        at,
                        node: Some(node),
                        what: format!(
                            "resync: first pulse {:.3}ms after the recovery at \
                             {:.6}s exceeds {:.3}ms",
                            (at - resumed).as_millis(),
                            resumed.as_secs(),
                            bound.as_millis()
                        ),
                    });
                }
            }
        }
        if !self.stable[i] {
            return;
        }
        // Pulse indices must advance by one; a skipped or repeated index
        // is a protocol-order breach regardless of timing.
        if let Some((prev_index, prev_at)) = prev {
            if index != prev_index + 1 {
                st.violations.push(InvariantViolation {
                    at,
                    node: Some(node),
                    what: format!("pulse order: index {index} after {prev_index}"),
                });
            }
            if let Some((lo, hi)) = self.spec.period {
                let gap = at - prev_at;
                if gap < lo || gap > hi {
                    st.violations.push(InvariantViolation {
                        at,
                        node: Some(node),
                        what: format!(
                            "period: {:.3}ms between pulses {prev_index} and {index} \
                             (bounds [{:.3}ms, {:.3}ms])",
                            gap.as_millis(),
                            lo.as_millis(),
                            hi.as_millis()
                        ),
                    });
                }
            }
        } else if index != 1 {
            st.violations.push(InvariantViolation {
                at,
                node: Some(node),
                what: format!("pulse order: first observed pulse has index {index}"),
            });
        }
        if let Some(bound) = self.spec.skew {
            let agg = st.rounds.entry(index).or_insert(RoundAgg {
                seen: 0,
                min: at,
                max: at,
            });
            agg.seen += 1;
            agg.min = agg.min.min(at);
            agg.max = agg.max.max(at);
            if agg.seen == self.stable_count {
                let spread: Dur = agg.max - agg.min;
                st.rounds.remove(&index);
                if spread > bound {
                    st.violations.push(InvariantViolation {
                        at,
                        node: Some(node),
                        what: format!(
                            "skew: round {index} spread {:.3}ms exceeds {:.3}ms",
                            spread.as_millis(),
                            bound.as_millis()
                        ),
                    });
                }
            }
        }
    }

    fn on_violation(&self, node: Option<NodeId>, text: &str, at: Time) {
        let mut st = self.state.lock();
        // Fault-budget scoping: affected nodes are allowed to complain
        // (they are crashing, rejoining, or Byzantine); blocked
        // forgeries are the *engine* catching the adversary, not a
        // protocol failure.
        let tolerated = !self.spec.count_affected_violations
            && (text.starts_with(BLOCKED_FORGERY_PREFIX)
                || node.is_some_and(|v| !self.stable[v.index()]));
        if tolerated {
            st.tolerated += 1;
        } else {
            st.violations.push(InvariantViolation {
                at,
                node,
                what: format!("protocol violation: {text}"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> InvariantSpec {
        InvariantSpec {
            skew: Some(Dur::from_millis(2.0)),
            period: Some((Dur::from_millis(5.0), Dur::from_millis(20.0))),
            min_pulses: Some((2, LivenessScope::Stable)),
            resync: None,
            count_affected_violations: false,
        }
    }

    fn pulse(c: &InvariantChecker, node: usize, index: u64, at_ms: f64) {
        c.on_pulse(NodeId::new(node), index, Time::from_millis(at_ms));
    }

    #[test]
    fn clean_run_is_clean() {
        let c = InvariantChecker::new(spec(), 2, &[]);
        pulse(&c, 0, 1, 10.0);
        pulse(&c, 1, 1, 11.0);
        pulse(&c, 0, 2, 20.0);
        pulse(&c, 1, 2, 21.0);
        let v = c.finalize(Time::from_millis(100.0));
        assert!(v.clean(), "{:?}", v.violations);
    }

    #[test]
    fn skew_breach_carries_completing_pulse_time() {
        let c = InvariantChecker::new(spec(), 2, &[]);
        pulse(&c, 0, 1, 10.0);
        pulse(&c, 1, 1, 13.5); // spread 3.5ms > 2ms
        let v = c.snapshot();
        assert_eq!(v.violations.len(), 1);
        assert_eq!(v.violations[0].at, Time::from_millis(13.5));
        assert!(v.violations[0].what.contains("skew"), "{}", v.violations[0]);
    }

    #[test]
    fn period_breach_detected_per_event() {
        let c = InvariantChecker::new(spec(), 1, &[]);
        pulse(&c, 0, 1, 10.0);
        pulse(&c, 0, 2, 12.0); // 2ms < min 5ms
        let v = c.snapshot();
        assert_eq!(v.violations.len(), 1);
        assert!(v.violations[0].what.contains("period"));
        assert_eq!(v.violations[0].at, Time::from_millis(12.0));
    }

    #[test]
    fn liveness_deficit_reported_at_horizon() {
        let c = InvariantChecker::new(spec(), 2, &[]);
        pulse(&c, 0, 1, 10.0);
        pulse(&c, 0, 2, 20.0);
        pulse(&c, 1, 1, 11.0);
        let v = c.finalize(Time::from_millis(50.0));
        assert_eq!(v.violations.len(), 1);
        assert_eq!(v.violations[0].node, Some(NodeId::new(1)));
        assert_eq!(v.violations[0].at, Time::from_millis(50.0));
        // Finalize is idempotent.
        let v2 = c.finalize(Time::from_millis(99.0));
        assert_eq!(v2.violations.len(), 1);
    }

    #[test]
    fn affected_nodes_are_exempt_but_counted() {
        let c = InvariantChecker::new(spec(), 2, &[1]);
        pulse(&c, 0, 1, 10.0);
        pulse(&c, 0, 2, 20.0);
        // Node 1 pulses wildly and complains — all tolerated.
        pulse(&c, 1, 5, 10.2);
        c.on_violation(Some(NodeId::new(1)), "round mismatch", Time::from_millis(15.0));
        c.on_violation(
            None,
            &format!("{BLOCKED_FORGERY_PREFIX}: stale"),
            Time::from_millis(16.0),
        );
        let v = c.finalize(Time::from_millis(100.0));
        assert!(v.clean(), "{:?}", v.violations);
        assert_eq!(v.tolerated, 2);
    }

    #[test]
    fn strict_mode_counts_affected_violations() {
        let mut s = spec();
        s.count_affected_violations = true;
        let c = InvariantChecker::new(s, 2, &[1]);
        c.on_violation(Some(NodeId::new(1)), "round mismatch", Time::from_millis(15.0));
        let v = c.snapshot();
        assert_eq!(v.violations.len(), 1);
        assert_eq!(
            v.first_violation().unwrap().at,
            Time::from_millis(15.0)
        );
    }

    fn resync_spec(bound_ms: f64) -> InvariantSpec {
        InvariantSpec {
            resync: Some(Dur::from_millis(bound_ms)),
            ..InvariantSpec::default()
        }
    }

    #[test]
    fn resync_within_bound_is_clean() {
        let c = InvariantChecker::new(resync_spec(30.0), 2, &[1])
            .with_resumes(&[(Time::from_millis(50.0), 1)]);
        pulse(&c, 1, 4, 70.0); // 20ms after recovery, inside the bound
        let v = c.finalize(Time::from_millis(200.0));
        assert!(v.clean(), "{:?}", v.violations);
    }

    #[test]
    fn late_resync_pulse_is_flagged_at_the_pulse() {
        let c = InvariantChecker::new(resync_spec(30.0), 2, &[1])
            .with_resumes(&[(Time::from_millis(50.0), 1)]);
        pulse(&c, 1, 4, 95.0); // 45ms after recovery
        let v = c.snapshot();
        assert_eq!(v.violations.len(), 1, "{:?}", v.violations);
        assert!(v.violations[0].what.contains("resync"), "{}", v.violations[0]);
        assert_eq!(v.violations[0].at, Time::from_millis(95.0));
        assert_eq!(v.violations[0].node, Some(NodeId::new(1)));
    }

    #[test]
    fn never_pulsing_again_is_flagged_at_the_horizon() {
        let c = InvariantChecker::new(resync_spec(30.0), 2, &[1])
            .with_resumes(&[(Time::from_millis(50.0), 1)]);
        pulse(&c, 1, 3, 40.0); // pre-recovery pulse must not satisfy it
        let v = c.finalize(Time::from_millis(200.0));
        assert_eq!(v.violations.len(), 1, "{:?}", v.violations);
        assert!(v.violations[0].what.contains("resync"), "{}", v.violations[0]);
        assert_eq!(v.violations[0].at, Time::from_millis(200.0));
    }

    #[test]
    fn unanswered_resume_inside_the_bound_at_horizon_is_not_flagged() {
        // The run ended before the bound expired — no verdict either way.
        let c = InvariantChecker::new(resync_spec(30.0), 2, &[1])
            .with_resumes(&[(Time::from_millis(50.0), 1)]);
        let v = c.finalize(Time::from_millis(60.0));
        assert!(v.clean(), "{:?}", v.violations);
    }

    #[test]
    fn replay_trace_matches_live_observation() {
        let live = InvariantChecker::new(spec(), 2, &[]);
        pulse(&live, 0, 1, 10.0);
        pulse(&live, 1, 1, 13.5);
        let mut trace = Trace::default();
        trace.pulses = vec![
            vec![Time::from_millis(10.0)],
            vec![Time::from_millis(13.5)],
        ];
        let replayed = InvariantChecker::new(spec(), 2, &[]);
        replayed.replay_trace(&trace);
        assert_eq!(
            live.snapshot().violations,
            replayed.snapshot().violations
        );
    }
}
