//! Shared measurement harness for the experiments ([`experiments`], one
//! binary with a subcommand each), the count ledger and the determinism
//! tests.
//!
//! Every experiment in README.md's per-experiment index funnels through
//! [`Scenario::run_cps`] / [`Scenario::run_protocol`], so sweeps differ only in the
//! parameter being varied and the adversary applied.

use crusader_core::{CpsNode, Derived, Params};
use crusader_crypto::NodeId;
use crusader_sim::metrics::{pulse_stats, steady_state_skew, PulseStats};
use crusader_sim::{Adversary, Automaton, DelayModel, SimBuilder, Trace};
use crusader_time::drift::DriftModel;
use crusader_time::{Dur, Time};

pub mod cli;
pub mod experiments;
pub mod snapshot;

/// One measured run.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// The honest nodes' pulse statistics: liveness, skews, periods.
    pub stats: PulseStats,
    /// Max skew after the convergence prefix (pulse 5 onwards).
    pub steady_skew: Dur,
    /// Number of soft violations recorded (0 in a healthy run).
    pub violations: usize,
}

impl Measurement {
    fn new(trace: &Trace, honest: &[NodeId]) -> Self {
        let stats = pulse_stats(trace, honest);
        Measurement {
            steady_skew: steady_state_skew(&stats, 5.min(stats.complete_pulses.max(1)))
                .unwrap_or(stats.max_skew),
            stats,
            violations: trace.violations.len(),
        }
    }
}

/// A scenario: everything about a run except the protocol.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// System size.
    pub n: usize,
    /// Faulty node indices.
    pub faulty: Vec<usize>,
    /// Maximum delay `d`.
    pub d: Dur,
    /// Honest-link uncertainty `u`.
    pub u: Dur,
    /// Faulty-link uncertainty `ũ` (defaults to `u`).
    pub u_tilde: Option<Dur>,
    /// Clock-rate bound `θ`.
    pub theta: f64,
    /// Delay policy.
    pub delays: DelayModel,
    /// Drift model.
    pub drift: DriftModel,
    /// Pulses to run for.
    pub pulses: u64,
    /// RNG seed.
    pub seed: u64,
    /// Event lanes: `1` runs the single-lane reference engine, anything
    /// larger the sharded executor ([`crusader_sim::ShardedSim`]), which
    /// produces the identical trace (clamped to `n` by the engine).
    pub lanes: usize,
    /// Overrides the sharded executor's use-worker-threads decision
    /// (`Some(true)` forces the persistent worker pool even on a
    /// single-CPU host, `Some(false)` forces inline lanes, `None` keeps
    /// the automatic choice). Ignored when `lanes == 1`. Used by the CI
    /// bench-smoke replay and the determinism tests to exercise the
    /// cross-thread hand-off on any machine; traces are identical either
    /// way.
    pub force_parallel: Option<bool>,
}

impl Scenario {
    /// A default scenario at maximum resilience with random delays and
    /// stable random drift.
    #[must_use]
    pub fn new(n: usize, d: Dur, u: Dur, theta: f64) -> Self {
        let f = crusader_core::max_faults_with_signatures(n);
        Scenario {
            n,
            faulty: (n - f..n).collect(),
            d,
            u,
            u_tilde: None,
            theta,
            delays: DelayModel::Random,
            drift: DriftModel::RandomStable,
            pulses: 12,
            seed: 0xC0FFEE,
            lanes: 1,
            force_parallel: None,
        }
    }

    /// The parameter set implied by the scenario: `f = |faulty|` (capped
    /// at `⌈n/2⌉ − 1`); a fault-free scenario still provisions the
    /// maximum budget, as a deployed system would.
    #[must_use]
    pub fn params(&self) -> Params {
        let fmax = crusader_core::max_faults_with_signatures(self.n);
        let f = if self.faulty.is_empty() {
            fmax
        } else {
            self.faulty.len().min(fmax)
        };
        Params {
            n: self.n,
            f,
            d: self.d,
            u: self.u,
            theta: self.theta,
        }
    }

    /// The honest node ids.
    #[must_use]
    pub fn honest(&self) -> Vec<NodeId> {
        NodeId::all(self.n)
            .filter(|v| !self.faulty.contains(&v.index()))
            .collect()
    }

    fn builder(&self, max_offset: Dur) -> SimBuilder {
        let mut link = crusader_sim::LinkConfig::new(self.d, self.u);
        if let Some(ut) = self.u_tilde {
            link = link.with_u_tilde(ut);
        }
        SimBuilder::new(self.n)
            .faulty(self.faulty.iter().copied())
            .link_config(link)
            .delays(self.delays.clone())
            .drift(self.drift.clone(), self.theta, max_offset)
            .seed(self.seed)
            .horizon(Time::from_secs(3600.0))
            .max_pulses(self.pulses)
    }

    /// Runs CPS under this scenario with the given adversary.
    ///
    /// # Panics
    ///
    /// Panics if the scenario parameters are infeasible for Theorem 17.
    pub fn run_cps(
        &self,
        adversary: Box<dyn Adversary<crusader_core::Carry>>,
    ) -> (Measurement, Derived) {
        let (trace, derived) = self.run_cps_trace(adversary);
        (Measurement::new(&trace, &self.honest()), derived)
    }

    /// Runs CPS under this scenario and returns the raw [`Trace`].
    ///
    /// Used by the count ledger (which needs
    /// [`Trace::events_processed`]) and by the determinism regression test
    /// (which pins a hash over the full observable trace).
    ///
    /// # Panics
    ///
    /// Panics if the scenario parameters are infeasible for Theorem 17.
    pub fn run_cps_trace(
        &self,
        adversary: Box<dyn Adversary<crusader_core::Carry>>,
    ) -> (Trace, Derived) {
        let params = self.params();
        let derived = params.derive().expect("feasible scenario");
        let sim = self
            .builder(derived.s)
            .build(|me| CpsNode::new(me, params, derived), adversary);
        (self.execute(sim), derived)
    }

    /// Runs a built simulation on the executor `lanes` selects: the
    /// single-lane reference engine at 1, the sharded executor above
    /// (with `force_parallel` applied to its worker-pool decision).
    fn execute<A: Automaton>(&self, sim: crusader_sim::Sim<A>) -> Trace {
        if self.lanes > 1 {
            let mut sharded = sim.sharded(self.lanes);
            if let Some(parallel) = self.force_parallel {
                sharded.set_parallel(parallel);
            }
            sharded.run()
        } else {
            sim.run()
        }
    }

    /// Runs an arbitrary automaton under this scenario.
    pub fn run_protocol<A, F>(
        &self,
        max_offset: Dur,
        make_node: F,
        adversary: Box<dyn Adversary<A::Msg>>,
    ) -> Measurement
    where
        A: Automaton,
        F: FnMut(NodeId) -> A,
    {
        let sim = self.builder(max_offset).build(make_node, adversary);
        Measurement::new(&self.execute(sim), &self.honest())
    }
}

/// Canonical FNV-1a hash of everything a [`Trace`] observably contains:
/// pulse times (as IEEE-754 bit patterns, so a 1-ulp drift flips the
/// hash), the violation list, forgery/message/event counts, and the
/// finishing time. Used by the determinism regression test to pin exact
/// engine behaviour and by the sharded cross-check proptests to compare
/// executors; `timer_slots_high_water`, `queue_spill_count` and
/// `queue_splice_count` are deliberately excluded (the sharded engine
/// reports per-lane aggregates of all three, see [`crusader_sim::shard`]).
#[must_use]
pub fn trace_hash(trace: &Trace) -> u64 {
    struct Fnv(u64);
    impl Fnv {
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        fn write_u64(&mut self, x: u64) {
            self.write(&x.to_le_bytes());
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.write_u64(trace.pulses.len() as u64);
    for pulses in &trace.pulses {
        h.write_u64(pulses.len() as u64);
        for t in pulses {
            h.write_u64(t.as_secs().to_bits());
        }
    }
    h.write_u64(trace.violations.len() as u64);
    for v in &trace.violations {
        h.write(v.as_bytes());
        h.write(&[0xff]); // separator
    }
    h.write_u64(trace.forgeries_blocked);
    h.write_u64(trace.messages_delivered);
    h.write_u64(trace.events_processed);
    h.write_u64(trace.finished_at.as_secs().to_bits());
    h.0
}

/// Formats a duration as aligned microseconds.
#[must_use]
pub fn us(d: Dur) -> String {
    format!("{:.3}", d.as_micros())
}

/// Prints a markdown-style table header.
pub fn header(cols: &[&str]) {
    println!("| {} |", cols.join(" | "));
    println!("|{}|", cols.iter().map(|c| "-".repeat(c.len() + 2)).collect::<Vec<_>>().join("|"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crusader_sim::SilentAdversary;

    #[test]
    fn scenario_defaults_are_max_resilience() {
        let s = Scenario::new(8, Dur::from_millis(1.0), Dur::from_micros(10.0), 1.0001);
        assert_eq!(s.faulty, vec![5, 6, 7]);
        assert_eq!(s.params().f, 3);
        assert_eq!(s.honest().len(), 5);
    }

    #[test]
    fn cps_measurement_runs() {
        let mut s = Scenario::new(4, Dur::from_millis(1.0), Dur::from_micros(10.0), 1.0001);
        s.pulses = 5;
        let (m, derived) = s.run_cps(Box::new(SilentAdversary));
        assert_eq!(m.stats.complete_pulses, 5);
        assert_eq!(crusader_core::bounds::definition3(&m.stats, &derived), Ok(()));
        assert_eq!(m.violations, 0);
    }
}
