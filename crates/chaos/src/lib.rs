//! Chaos engineering for the crusader stacks: a data-defined scenario
//! catalog, deterministic fault injection on both executors, and
//! continuous invariant checking.
//!
//! The paper proves CPS keeps pulsing within bounded skew under a
//! Byzantine minority; this crate probes the *implementation* against
//! the messier failures deployments actually see — crash/recover,
//! churn, delay storms, healing partitions, replay floods, nodes
//! rejoining from arbitrary state — and checks the protocol's
//! guarantees **while the run is still going**, so every breach carries
//! the timestamp of the exact event that caused it.
//!
//! The pieces:
//!
//! * [`Scenario`] / [`Catalog`] — the committed `.chaos` file format
//!   (see `catalog/` in this crate for the shipped set) parsed into a
//!   fault timeline plus invariants plus a pinned clean/violating
//!   expectation;
//! * [`InvariantChecker`] — a [`crusader_sim::RunObserver`] evaluating
//!   skew / period / pulse-order / liveness / fault-budget predicates
//!   per event, on the simulator and the wall-clock runtime alike;
//! * [`ChaosAdversary`] — the Byzantine half of round-flooding on the
//!   simulator (replay + rushing inside flood windows);
//! * [`run_scenario`] — one entry point replaying any scenario on any
//!   [`Executor`]: the simulator (bit-identical traces per seed) or the
//!   wall-clock runtime (identical verdicts).
//!
//! Honest-traffic injection (crash freezes, link cuts, delay storms,
//! flood duplication) lives in the executors themselves —
//! `crusader_sim::ChaosTimeline` is enforced by the simulator and by
//! the runtime's network thread — so this crate only authors timelines
//! and observes outcomes; it never reaches into engine internals.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod checker;
pub mod replay;
pub mod scenario;

pub use adversary::ChaosAdversary;
pub use checker::{InvariantChecker, InvariantViolation, Verdict};
pub use replay::{run_scenario, scenario_params, Executor, Outcome};
pub use scenario::{
    builtin_catalog_dir, Catalog, Expectation, InvariantSpec, LivenessScope, Scenario,
};
