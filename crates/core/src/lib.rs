//! The primary contribution of Lenzen & Loss, *Optimal Clock
//! Synchronization with Signatures* (PODC 2022): Byzantine fault-tolerant
//! clock synchronization at the signature-enabled optimal resilience
//! `f = ⌈n/2⌉ − 1` with asymptotically optimal skew `Θ(u + (θ−1)d)`.
//!
//! # What's here
//!
//! * [`Params`] / [`Derived`] — the model parameters and the protocol
//!   quantities of Theorem 17 (`S`, `T`, `δ`), with exact feasibility
//!   checking.
//! * [`CpsNode`] — Crusader Pulse Synchronization (Figure 3), the main
//!   algorithm, as a runtime-agnostic automaton.
//! * [`tcb`] — Timed Crusader Broadcast (Figure 2), the signed, timed
//!   broadcast primitive whose echo-rejection window is the heart of the
//!   upper bound.
//! * [`ApaNode`] — synchronous approximate agreement (Figure 1,
//!   Theorem 9, Corollary 2).
//! * [`CbNode`] — synchronous Crusader Broadcast with signatures
//!   (Figure 4).
//! * [`midpoint`](mod@midpoint) — the shared discard-and-midpoint selection rule.
//! * [`adversary`] — Byzantine strategies (rushing forwarder, staggered
//!   dealer) used by the attack experiments.
//! * [`bounds`] — each claimed bound, defined once: Definition 3 under
//!   Theorem 17, the fleet skew, the rejoin catch-up time and the runtime
//!   skew envelope.
//!
//! # Quickstart
//!
//! ```
//! use crusader_core::{bounds, CpsNode, Params};
//! use crusader_crypto::NodeId;
//! use crusader_sim::metrics::pulse_stats;
//! use crusader_sim::{SilentAdversary, SimBuilder};
//! use crusader_time::drift::DriftModel;
//! use crusader_time::Dur;
//!
//! // 4 nodes, one of which may be Byzantine (f = ⌈4/2⌉ − 1 = 1).
//! let params = Params::max_resilience(
//!     4,
//!     Dur::from_millis(1.0),   // d
//!     Dur::from_micros(10.0),  // u
//!     1.0001,                  // θ
//! );
//! let derived = params.derive()?;
//! let trace = SimBuilder::new(4)
//!     .faulty([3])
//!     .link(params.d, params.u)
//!     .drift(DriftModel::RandomStable, params.theta, derived.s)
//!     .max_pulses(5)
//!     .build(
//!         |me| CpsNode::new(me, params, derived),
//!         Box::new(SilentAdversary),
//!     )
//!     .run();
//! let honest: Vec<NodeId> = (0..3).map(NodeId::new).collect();
//! let stats = pulse_stats(&trace, &honest);
//! assert_eq!(stats.complete_pulses, 5);
//! assert_eq!(bounds::definition3(&stats, &derived), Ok(())); // Theorem 17
//! # Ok::<(), crusader_core::ParamError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod apa;
pub mod bounds;
pub mod cb;
pub mod client;
pub mod cps;
pub mod messages;
pub mod midpoint;
pub mod params;
pub mod recovery;
pub mod tcb;

pub use apa::{iterations_for, ApaMsg, ApaNode};
pub use cb::{CbNode, CbOutput, SignedValue, Value};
pub use client::{FleetNode, PulseClient};
pub use cps::CpsNode;
pub use messages::{
    pulse_sign_bytes, pulse_sign_bytes_array, pulse_sign_bytes_cached, Carry,
    PULSE_SIGN_BYTES_LEN,
};
pub use midpoint::{midpoint, select_interval, Interval};
pub use params::{
    max_faults_with_signatures, max_faults_without_signatures, Derived, ParamError, Params,
};
pub use recovery::{
    PulseCertificate, RecoveringNode, RecoveryMsg, ResyncReply, RESYNC_MAX_ATTEMPTS,
};
pub use tcb::{DirectOutcome, TcbDecision, TcbInstance, TcbWindows};
