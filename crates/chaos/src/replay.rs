//! Replaying a [`Scenario`] on any executor with continuous checking.
//!
//! One scenario file drives three executors: the single-lane reference
//! simulator, the sharded simulator (any lane count), and the
//! wall-clock runtime. Every replay runs the recovery-capable
//! fleet — [`RecoveringNode`] wrapping [`CpsNode`] — so a crash window
//! ending mid-run triggers the real signed rejoin handshake (resync
//! request, `f + 1`-signature pulse certificate, fast-forward) instead
//! of a node resuming on stale state. The simulator path is bit-deterministic
//! — same scenario, same seed, same trace on every lane count; the
//! runtime path replays the same fault timeline against the host clock,
//! with the same [`InvariantChecker`] riding along, and must reach the
//! same *verdict* (clean / violating) even though its timings carry
//! host jitter.

use std::sync::Arc;

use crusader_core::{max_faults_with_signatures, CpsNode, Params, RecoveringNode, RecoveryMsg};
use crusader_runtime::RuntimeConfig;
use crusader_sim::{
    Adversary, DelayModel, SilentAdversary, SimBuilder, Trace,
};
use crusader_time::drift::DriftModel;
use crusader_time::Time;

use crate::adversary::ChaosAdversary;
use crate::checker::{InvariantChecker, Verdict};
use crate::scenario::{Expectation, Scenario};

/// Which executor replays the scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Executor {
    /// The deterministic simulator: `lanes == 1` is the single-lane
    /// reference engine, larger values the sharded executor
    /// (`force_parallel` overrides its worker-pool heuristic).
    Sim {
        /// Event lanes.
        lanes: usize,
        /// Worker-pool override; `None` keeps the automatic choice.
        force_parallel: Option<bool>,
    },
    /// The wall-clock runtime.
    Runtime {
        /// Reactor worker count (`None` = `available_parallelism()`).
        workers: Option<usize>,
    },
}

impl std::fmt::Display for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Executor::Sim { lanes: 1, .. } => write!(f, "sim"),
            Executor::Sim { lanes, .. } => write!(f, "sim/lanes={lanes}"),
            Executor::Runtime { .. } => write!(f, "runtime"),
        }
    }
}

/// The result of one replay.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Scenario slug.
    pub scenario: String,
    /// Executor that produced this outcome.
    pub executor: Executor,
    /// The run's trace (bit-deterministic on the simulator).
    pub trace: Trace,
    /// The continuous checker's verdict.
    pub verdict: Verdict,
}

impl Outcome {
    /// Whether the verdict matches the scenario's pinned expectation.
    #[must_use]
    pub fn as_expected(&self, scenario: &Scenario) -> bool {
        match scenario.expect {
            Expectation::Clean => self.verdict.clean(),
            Expectation::Violations => !self.verdict.clean(),
        }
    }
}

/// The CPS parameter set a scenario implies: the paper's maximum fault
/// budget is always provisioned (as a deployed system would), whether or
/// not the scenario actually corrupts that many nodes.
///
/// # Panics
///
/// Panics if the scenario's `n`/`d`/`u`/`theta` are infeasible for
/// Theorem 17 — a catalog error, caught by the catalog tests.
#[must_use]
pub fn scenario_params(sc: &Scenario) -> Params {
    let f = max_faults_with_signatures(sc.n);
    assert!(
        sc.faulty.len() <= f,
        "scenario {} corrupts {} nodes, budget is {f}",
        sc.name,
        sc.faulty.len()
    );
    Params {
        n: sc.n,
        f,
        d: sc.d,
        u: sc.u,
        theta: sc.theta,
    }
}

/// Replays `sc` on `executor` with an [`InvariantChecker`] observing
/// continuously, and returns the trace + verdict.
///
/// # Panics
///
/// Panics if the scenario parameters are infeasible (see
/// [`scenario_params`]) or an executor thread panics.
#[must_use]
pub fn run_scenario(sc: &Scenario, executor: Executor) -> Outcome {
    let timeline = Arc::new(sc.timeline());
    let resumes: Vec<(Time, usize)> = timeline
        .crash_transitions()
        .into_iter()
        .filter(|&(_, _, down)| !down)
        .map(|(at, node, _)| (at, node))
        .collect();
    let checker = Arc::new(
        InvariantChecker::new(sc.invariants.clone(), sc.n, &sc.affected())
            .with_resumes(&resumes),
    );
    let horizon = Time::ZERO + sc.run_for;
    let trace = match executor {
        Executor::Sim {
            lanes,
            force_parallel,
        } => run_sim(sc, &timeline, &checker, horizon, lanes, force_parallel),
        Executor::Runtime { workers } => run_runtime(sc, &timeline, &checker, workers),
    };
    let verdict = checker.finalize(horizon);
    Outcome {
        scenario: sc.name.clone(),
        executor,
        trace,
        verdict,
    }
}

fn run_sim(
    sc: &Scenario,
    timeline: &Arc<crusader_sim::ChaosTimeline>,
    checker: &Arc<InvariantChecker>,
    horizon: Time,
    lanes: usize,
    force_parallel: Option<bool>,
) -> Trace {
    let params = scenario_params(sc);
    let derived = params.derive().unwrap_or_else(|e| {
        panic!("scenario {}: infeasible parameters: {e}", sc.name)
    });
    let adversary: Box<dyn Adversary<RecoveryMsg>> = if sc.faulty.is_empty() {
        Box::new(SilentAdversary)
    } else {
        Box::new(ChaosAdversary::new(Arc::clone(timeline), sc.d - sc.u))
    };
    let sim = SimBuilder::new(sc.n)
        .faulty(sc.faulty.iter().copied())
        .link(sc.d, sc.u)
        .delays(DelayModel::Random)
        .drift(DriftModel::RandomStable, sc.theta, derived.s)
        .seed(sc.seed)
        .horizon(horizon)
        .chaos(Arc::clone(timeline))
        .observer(Arc::clone(checker) as Arc<dyn crusader_sim::RunObserver>)
        .build(
            |me| RecoveringNode::new(CpsNode::new(me, params, derived)),
            adversary,
        );
    if lanes > 1 {
        let mut sharded = sim.sharded(lanes);
        if let Some(parallel) = force_parallel {
            sharded.set_parallel(parallel);
        }
        sharded.run()
    } else {
        sim.run()
    }
}

fn run_runtime(
    sc: &Scenario,
    timeline: &Arc<crusader_sim::ChaosTimeline>,
    checker: &Arc<InvariantChecker>,
    workers: Option<usize>,
) -> Trace {
    let params = scenario_params(sc);
    let derived = params.derive().unwrap_or_else(|e| {
        panic!("scenario {}: infeasible parameters: {e}", sc.name)
    });
    // The runtime has no Byzantine machinery — faulty nodes degrade to
    // crashed-from-start, the strongest fault it can express.
    let cfg = RuntimeConfig {
        silent: sc.faulty.clone(),
        d: sc.d,
        u: sc.u,
        theta: sc.theta,
        max_offset: derived.s,
        run_for: std::time::Duration::from_secs_f64(sc.run_for.as_secs()),
        seed: sc.seed,
        workers,
        chaos: Some(Arc::clone(timeline)),
        observer: Some(Arc::clone(checker) as Arc<dyn crusader_sim::RunObserver>),
        ..RuntimeConfig::new(sc.n)
    };
    crusader_runtime::run(&cfg, |me| {
        RecoveringNode::new(CpsNode::new(me, params, derived))
    })
    .trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn calm(n: usize, seed: u64) -> Scenario {
        Scenario::parse(&format!(
            "
            name calm
            summary fault-free
            n {n}
            seed {seed}
            run_for_ms 200
            invariant skew_ms 10
            invariant min_pulses 1
            expect clean
        "
        ))
        .expect("parses")
    }

    #[test]
    fn calm_scenario_is_clean_and_lane_invariant() {
        let sc = calm(5, 3);
        let single = run_scenario(
            &sc,
            Executor::Sim {
                lanes: 1,
                force_parallel: None,
            },
        );
        assert!(single.as_expected(&sc), "{:?}", single.verdict);
        assert!(single.trace.pulses.iter().all(|p| !p.is_empty()));
        let sharded = run_scenario(
            &sc,
            Executor::Sim {
                lanes: 3,
                force_parallel: Some(true),
            },
        );
        assert_eq!(single.trace.pulses, sharded.trace.pulses);
        assert_eq!(
            single.verdict.violations, sharded.verdict.violations,
            "continuous checking must agree lane-for-lane"
        );
    }

    #[test]
    fn crash_scenario_verdict_has_first_violation_timestamp() {
        let sc = Scenario::parse(
            "
            name probe
            summary a dead node misses its pulse quota
            n 5
            seed 2
            run_for_ms 300
            crash 1 60 never
            invariant min_pulses 5 all
            expect violations
        ",
        )
        .expect("parses");
        let out = run_scenario(
            &sc,
            Executor::Sim {
                lanes: 1,
                force_parallel: None,
            },
        );
        assert!(out.as_expected(&sc), "expected violations, got clean");
        let first = out.verdict.first_violation().expect("has violations");
        assert!(
            first.at > Time::ZERO && first.at <= Time::ZERO + sc.run_for,
            "first violation {first} outside the run"
        );
    }
}
