//! A consensus-style pulse synchronizer in the spirit of Abraham et al.
//! (Financial Crypto 2019), which the paper's introduction cites as the
//! pre-existing signature-based algorithm with optimal resilience but skew
//! `Ω(n(u + (θ−1)d))`: each pulse is gated on a Dolev–Strong-style
//! signature chain whose `f + 1` sequential hops are paced by *local
//! timeouts* (the standard lock-step simulation of synchronous consensus),
//! so every node free-runs on its drifting clock for `Θ(f)` rounds between
//! anchors — skew `Θ(u + (θ−1)·f·d)`, growing linearly in `f`. This is
//! the curve experiment E8 plots against CPS.
//!
//! ## Simplified protocol (one epoch = one pulse)
//!
//! * The coordinator (node 0) starts epoch `e` by signing a beacon and
//!   broadcasting it; every node *anchors* the epoch at the beacon's
//!   arrival on its own clock.
//! * Consensus ceremony: nodes `1..f` sequentially append signatures and
//!   pass the chain on; the `f+1`-signature chain is broadcast, and
//!   having it is what entitles a node to pulse (at most `f` of the
//!   signers can be faulty, so a complete chain proves an honest node
//!   endorsed the epoch).
//! * Each node pulses `(f + 2)` lock-step rounds after its anchor, i.e.
//!   at local time `anchor + (f + 2)·θ·d` — the timeout that guarantees
//!   the chain has completed in real time no matter how clocks drift.
//!
//! The anchor spreads by `O(u)` across nodes; the `(f+2)·θd` of local
//! waiting then drifts apart by up to `(f+2)(θ−1)d`. Liveness of the
//! ceremony requires the relay prefix `0..f` to be honest; experiments
//! place faults outside it (the algorithm of \[2\] runs full Byzantine
//! consensus instead — same skew shape, far more machinery).

use std::collections::HashMap;

use bytes::Bytes;
use crusader_crypto::{CarriesSignatures, NodeId, Signature, SignedClaim};
use crusader_sim::{Automaton, Context, TimerId};
use crusader_time::Dur;

/// Domain-separation tag for chain-sync beacons.
pub const CHAIN_DOMAIN: &[u8] = b"crusader/chain-sync/v1";

/// The bytes each chain member signs for epoch `e`.
#[must_use]
pub fn chain_sign_bytes(epoch: u64) -> Bytes {
    let mut buf = Vec::with_capacity(CHAIN_DOMAIN.len() + 8);
    buf.extend_from_slice(CHAIN_DOMAIN);
    buf.extend_from_slice(&epoch.to_le_bytes());
    Bytes::from(buf)
}

/// An epoch beacon carrying a signature chain `[node0, node1, …]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainMsg {
    /// Epoch number, `e ≥ 1`.
    pub epoch: u64,
    /// In-order signatures of nodes `0..k`.
    pub sigs: Vec<(NodeId, Signature)>,
}

impl CarriesSignatures for ChainMsg {
    fn for_each_claim(&self, f: &mut dyn FnMut(SignedClaim)) {
        // One byte-buffer per message; every claim shares it by refcount.
        let bytes = chain_sign_bytes(self.epoch);
        for (signer, sig) in &self.sigs {
            f(SignedClaim::new(*signer, bytes.clone(), sig.clone()));
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TimerKind {
    EpochStart { epoch: u64 },
    Pulse { epoch: u64 },
}

/// One chained-epoch-sync node.
#[derive(Debug)]
pub struct ChainSyncNode {
    me: NodeId,
    #[allow(dead_code)] // part of the configured identity; used in assertions
    n: usize,
    f: usize,
    /// Lock-step round length `R = θ·d` in local time.
    round_len: Dur,
    /// Gap between a pulse and the coordinator's next epoch start.
    epoch_gap: Dur,
    /// Next epoch this node expects.
    next_epoch: u64,
    anchored: bool,
    appended: bool,
    completed: bool,
    timers: HashMap<TimerId, TimerKind>,
}

impl ChainSyncNode {
    /// Creates a node. The relay prefix `0..=f` must be honest for
    /// liveness (see module docs).
    ///
    /// # Panics
    ///
    /// Panics if `f + 1 > n` or `theta < 1`.
    #[must_use]
    pub fn new(me: NodeId, n: usize, f: usize, d: Dur, theta: f64) -> Self {
        assert!(f < n, "need f + 1 <= n relay members");
        assert!(theta >= 1.0, "theta must be >= 1");
        let round_len = d * theta;
        ChainSyncNode {
            me,
            n,
            f,
            round_len,
            epoch_gap: round_len * (f as f64 + 6.0),
            next_epoch: 1,
            anchored: false,
            appended: false,
            completed: false,
            timers: HashMap::new(),
        }
    }

    /// The local free-run span between anchor and pulse,
    /// `(f + 2)·θ·d` — the term whose drift makes this protocol's skew
    /// grow with `f`.
    #[must_use]
    pub fn freerun(&self) -> Dur {
        self.round_len * (self.f as f64 + 2.0)
    }

    fn chain_valid(&self, msg: &ChainMsg, verifier: &dyn crusader_crypto::Verifier) -> bool {
        if msg.sigs.is_empty() || msg.sigs.len() > self.f + 1 {
            return false;
        }
        let bytes = chain_sign_bytes(msg.epoch);
        msg.sigs.iter().enumerate().all(|(i, (signer, sig))| {
            *signer == NodeId::new(i) && verifier.verify(*signer, &bytes, sig)
        })
    }
}

impl Automaton for ChainSyncNode {
    type Msg = ChainMsg;

    fn on_init(&mut self, ctx: &mut dyn Context<ChainMsg>) {
        if self.me == NodeId::new(0) {
            let id = ctx.set_timer_at(ctx.local_time() + self.round_len);
            self.timers.insert(id, TimerKind::EpochStart { epoch: 1 });
        }
    }

    fn on_message(&mut self, from: NodeId, msg: ChainMsg, ctx: &mut dyn Context<ChainMsg>) {
        if msg.epoch != self.next_epoch || !self.chain_valid(&msg, ctx.verifier()) {
            return;
        }
        let k = msg.sigs.len();
        // Anchor on the coordinator's direct beacon.
        if from == NodeId::new(0) && k >= 1 && !self.anchored {
            self.anchored = true;
            let id = ctx.set_timer_at(ctx.local_time() + self.freerun());
            self.timers.insert(
                id,
                TimerKind::Pulse {
                    epoch: msg.epoch,
                },
            );
        }
        if k == self.f + 1 {
            self.completed = true;
            return;
        }
        // Relay ceremony: we are the next on the path.
        if self.me == NodeId::new(k) && !self.appended {
            self.appended = true;
            let sig = ctx.signer().sign(&chain_sign_bytes(msg.epoch));
            let mut sigs = msg.sigs;
            sigs.push((self.me, sig));
            let extended = ChainMsg {
                epoch: msg.epoch,
                sigs,
            };
            if k + 1 == self.f + 1 {
                self.completed = true;
                ctx.broadcast(extended);
            } else {
                ctx.send(NodeId::new(k + 1), extended);
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<ChainMsg>) {
        let Some(kind) = self.timers.remove(&timer) else {
            return;
        };
        match kind {
            TimerKind::EpochStart { epoch } => {
                if epoch != self.next_epoch || self.me != NodeId::new(0) {
                    return;
                }
                let sig = ctx.signer().sign(&chain_sign_bytes(epoch));
                let beacon = ChainMsg {
                    epoch,
                    sigs: vec![(self.me, sig)],
                };
                // Broadcast anchors everyone (including ourselves via the
                // self-delivery); the chain ceremony rides on node 1.
                ctx.broadcast(beacon);
            }
            TimerKind::Pulse { epoch } => {
                if !self.completed {
                    ctx.mark_violation(format!(
                        "epoch {epoch}: pulse deadline without a complete chain"
                    ));
                }
                ctx.pulse(epoch);
                self.next_epoch = epoch + 1;
                self.anchored = false;
                self.appended = false;
                self.completed = false;
                if self.me == NodeId::new(0) {
                    let id = ctx.set_timer_at(ctx.local_time() + self.epoch_gap);
                    self.timers
                        .insert(id, TimerKind::EpochStart { epoch: epoch + 1 });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crusader_sim::metrics::pulse_stats;
    use crusader_sim::{DelayModel, SilentAdversary, SimBuilder};
    use crusader_time::drift::DriftModel;
    use crusader_time::Time;

    use super::*;

    fn run_chain(n: usize, f: usize, theta: f64, pulses: u64, seed: u64) -> crusader_sim::Trace {
        let d = Dur::from_millis(1.0);
        let u = Dur::from_micros(10.0);
        SimBuilder::new(n)
            .link(d, u)
            .delays(DelayModel::Random)
            .drift(DriftModel::ExtremalSplit, theta, Dur::ZERO)
            .seed(seed)
            .horizon(Time::from_secs(30.0))
            .max_pulses(pulses)
            .build(
                |me| ChainSyncNode::new(me, n, f, d, theta),
                Box::new(SilentAdversary),
            )
            .run()
    }

    #[test]
    fn epochs_pulse_on_all_nodes() {
        let trace = run_chain(5, 2, 1.0001, 5, 1);
        let honest: Vec<NodeId> = NodeId::all(5).collect();
        let stats = pulse_stats(&trace, &honest);
        assert_eq!(stats.complete_pulses, 5);
        assert!(trace.violations.is_empty(), "{:?}", trace.violations);
    }

    #[test]
    fn skew_grows_linearly_with_f() {
        // The headline shape: (f+2)·θd of local free-run means skew
        // ≈ (θ−1)(f+2)d + O(u); raising f from 2 to 8 should raise the
        // skew accordingly.
        let theta = 1.01;
        let skew_at = |n: usize, f: usize| {
            let trace = run_chain(n, f, theta, 6, 5);
            let honest: Vec<NodeId> = NodeId::all(n).collect();
            let stats = pulse_stats(&trace, &honest);
            assert_eq!(stats.complete_pulses, 6, "f={f}: {:?}", trace.violations);
            stats.max_skew
        };
        let s2 = skew_at(12, 2);
        let s8 = skew_at(12, 8);
        assert!(
            s8 > s2 * 1.5,
            "skew should grow with f: f=2 → {s2}, f=8 → {s8}"
        );
        // Absolute scale: (θ−1)(f+2)d within a factor of 2 either way.
        let predicted = Dur::from_millis(10.0) * (theta - 1.0);
        assert!(
            s8 >= predicted * 0.5 && s8 <= predicted * 2.0,
            "f=8 skew {s8} vs predicted {predicted}"
        );
    }

    #[test]
    fn f_zero_still_works() {
        let trace = run_chain(3, 0, 1.0001, 4, 2);
        let honest: Vec<NodeId> = NodeId::all(3).collect();
        let stats = pulse_stats(&trace, &honest);
        assert_eq!(stats.complete_pulses, 4);
    }

    #[test]
    fn freerun_scales_with_f() {
        let d = Dur::from_millis(1.0);
        let a = ChainSyncNode::new(NodeId::new(0), 8, 1, d, 1.0);
        let b = ChainSyncNode::new(NodeId::new(0), 8, 3, d, 1.0);
        assert_eq!(a.freerun(), Dur::from_millis(3.0));
        assert_eq!(b.freerun(), Dur::from_millis(5.0));
    }
}
