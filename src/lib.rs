//! # crusader — Optimal Clock Synchronization with Signatures
//!
//! A full implementation of Lenzen & Loss, *Optimal Clock Synchronization
//! with Signatures* (PODC 2022): Byzantine fault-tolerant clock
//! synchronization at resilience `f = ⌈n/2⌉ − 1` with asymptotically
//! optimal skew `Θ(u + (θ−1)d)`, together with every substrate needed to
//! reproduce the paper's results:
//!
//! * [`core`] — the paper's algorithms: Crusader Pulse Synchronization
//!   (CPS), Timed Crusader Broadcast (TCB), approximate agreement (APA),
//!   Crusader Broadcast (CB), the Theorem 17 parameter derivation, and
//!   Byzantine attack strategies.
//! * [`sim`] — a deterministic discrete-event simulator implementing the
//!   paper's execution model exactly (adversarial delays and clocks,
//!   signature-knowledge enforcement, a synchronous rushing-adversary
//!   executor).
//! * [`crypto`] — node identities, symbolic (Dolev–Yao) and ed25519
//!   signatures, and the adversary's knowledge tracker.
//! * [`time`] — real/local time, drifting hardware clocks, drift models.
//! * [`baselines`] — Lynch–Welch, Srikanth–Toueg-style echo sync,
//!   consensus-style chain sync.
//! * [`lowerbound`] — the executable Theorem 5 construction (skew
//!   `≥ 2ũ/3` whenever `f ≥ ⌈n/3⌉`).
//! * [`runtime`] — a wall-clock thread runtime running the same protocol
//!   automatons with real ed25519 signatures.
//!
//! ## Quickstart
//!
//! ```
//! use crusader::core::{bounds, CpsNode, Params};
//! use crusader::crypto::NodeId;
//! use crusader::sim::metrics::pulse_stats;
//! use crusader::sim::{SilentAdversary, SimBuilder};
//! use crusader::time::drift::DriftModel;
//! use crusader::time::Dur;
//!
//! // A 5-node system tolerating f = 2 Byzantine nodes — beyond the
//! // ⌈n/3⌉ − 1 = 1 bound of the signature-free setting.
//! let params = Params::max_resilience(
//!     5,
//!     Dur::from_millis(1.0),  // d: max message delay
//!     Dur::from_micros(10.0), // u: delay uncertainty
//!     1.0001,                 // θ: max clock rate
//! );
//! let derived = params.derive()?;
//! let trace = SimBuilder::new(5)
//!     .faulty([3, 4])
//!     .link(params.d, params.u)
//!     .drift(DriftModel::RandomStable, params.theta, derived.s)
//!     .max_pulses(10)
//!     .build(
//!         |me| CpsNode::new(me, params, derived),
//!         Box::new(SilentAdversary),
//!     )
//!     .run();
//! let honest: Vec<NodeId> = (0..3).map(NodeId::new).collect();
//! let stats = pulse_stats(&trace, &honest);
//! assert_eq!(stats.complete_pulses, 10);      // liveness
//! assert_eq!(bounds::definition3(&stats, &derived), Ok(())); // Theorem 17
//! # Ok::<(), crusader::core::ParamError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! experiment harness regenerating the paper's results (README.md maps
//! every claim to its experiment; PAPER.md states the theorems).

#![forbid(unsafe_code)]

pub use crusader_baselines as baselines;
pub use crusader_core as core;
pub use crusader_crypto as crypto;
pub use crusader_lowerbound as lowerbound;
pub use crusader_runtime as runtime;
pub use crusader_sim as sim;
pub use crusader_time as time;
