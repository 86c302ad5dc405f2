//! Baseline clock-synchronization protocols that *Optimal Clock
//! Synchronization with Signatures* (Lenzen & Loss, PODC 2022) compares
//! against, implemented over the same simulator and parameters as CPS so
//! the comparisons in experiment E8 are apples-to-apples:
//!
//! | Protocol | Signatures | Resilience | Skew |
//! |---|---|---|---|
//! | [`LwNode`] (Lynch–Welch '84) | no | `⌈n/3⌉ − 1` | `Θ(u + (θ−1)d)` |
//! | [`EchoSyncNode`] (Srikanth–Toueg-style '85) | yes | `⌈n/2⌉ − 1` | `Θ(d)` |
//! | [`ChainSyncNode`] (consensus-style, cf. Abraham et al. '19) | yes | `⌈n/2⌉ − 1` | `Θ(u + (θ−1)·f·d)` |
//! | `CpsNode` (this paper) | yes | `⌈n/2⌉ − 1` | `Θ(u + (θ−1)d)` |
//!
//! Also here: the attack strategies ([`TickStagger`], [`SelectiveEcho`])
//! that realize each baseline's worst case.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod chain_sync;
pub mod echo_sync;
pub mod lynch_welch;

pub use adversary::{SelectiveEcho, TickStagger};
pub use chain_sync::{ChainMsg, ChainSyncNode};
pub use echo_sync::{EchoMsg, EchoSyncNode};
pub use lynch_welch::{LwNode, Tick};
