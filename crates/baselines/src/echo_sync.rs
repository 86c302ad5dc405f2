//! A Srikanth–Toueg-style authenticated-echo pulse synchronizer
//! (Srikanth & Toueg, PODC 1985; Halpern–Simons–Strong–Dolev, PODC 1984):
//! the pre-existing way to get resilience `⌈n/2⌉ − 1` with signatures —
//! at the cost of skew `Θ(d)` instead of CPS's `Θ(u + (θ−1)d)`.
//!
//! Protocol, per round `r`:
//!
//! * when a node's local round timer fires, it signs and broadcasts
//!   `⟨round r⟩_v`;
//! * when a node holds `f + 1` *distinct* valid round-`r` signatures, it
//!   fires pulse `r`, relays the whole bundle (so every honest node
//!   reaches the threshold within one more hop), and arms its round-`r+1`
//!   timer one nominal period `P` later.
//!
//! With at most `f` faults, `f + 1` signatures always include an honest
//! one, so faulty nodes alone can never trigger an early pulse; and once
//! the *first* honest node pulses, its relayed bundle makes everyone pulse
//! within one message delay — skew `≤ d`, which is also roughly what it
//! costs: the relay hop pins the skew at `Θ(d)` no matter how small `u`
//! is. This gap is the headline comparison of the paper (experiment E8).

use std::collections::{HashMap, HashSet};

use bytes::Bytes;
use crusader_crypto::{CarriesSignatures, NodeId, Signature, SignedClaim};
use crusader_sim::{Automaton, Context, TimerId};
use crusader_time::Dur;

/// Domain-separation tag for echo-sync round signatures.
pub const ECHO_DOMAIN: &[u8] = b"crusader/echo-sync/v1";

/// The bytes signed for round `r`.
#[must_use]
pub fn echo_sign_bytes(round: u64) -> Bytes {
    let mut buf = Vec::with_capacity(ECHO_DOMAIN.len() + 8);
    buf.extend_from_slice(ECHO_DOMAIN);
    buf.extend_from_slice(&round.to_le_bytes());
    Bytes::from(buf)
}

/// A bundle of round signatures (one or more).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EchoMsg {
    /// The round these signatures endorse.
    pub round: u64,
    /// `(signer, signature)` pairs; receivers validate each.
    pub sigs: Vec<(NodeId, Signature)>,
}

impl CarriesSignatures for EchoMsg {
    fn for_each_claim(&self, f: &mut dyn FnMut(SignedClaim)) {
        // One byte-buffer per message; every claim shares it by refcount.
        let bytes = echo_sign_bytes(self.round);
        for (signer, sig) in &self.sigs {
            f(SignedClaim::new(*signer, bytes.clone(), sig.clone()));
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TimerKind {
    RoundTimer { round: u64 },
}

/// One echo-sync node.
#[derive(Debug)]
pub struct EchoSyncNode {
    me: NodeId,
    n: usize,
    f: usize,
    /// Nominal period between pulses (must exceed `2d` plus worst-case
    /// initial offset for rounds to stay separated).
    period: Dur,
    /// Next round whose pulse we have not yet fired.
    round: u64,
    /// Valid signers seen per round (only the current round is kept).
    signers: HashMap<u64, HashSet<NodeId>>,
    sigs: HashMap<u64, Vec<(NodeId, Signature)>>,
    timers: HashMap<TimerId, TimerKind>,
}

impl EchoSyncNode {
    /// Creates a node. `period` is the nominal pulse period `P`.
    ///
    /// # Panics
    ///
    /// Panics if `f + 1 > n − f` (threshold unreachable: needs
    /// `f ≤ ⌈n/2⌉ − 1`).
    #[must_use]
    pub fn new(me: NodeId, n: usize, f: usize, period: Dur) -> Self {
        assert!(
            f < n - f,
            "echo sync needs f <= ceil(n/2)-1 (got n={n}, f={f})"
        );
        EchoSyncNode {
            me,
            n,
            f,
            period,
            round: 1,
            signers: HashMap::new(),
            sigs: HashMap::new(),
            timers: HashMap::new(),
        }
    }

    fn add_signature(
        &mut self,
        round: u64,
        signer: NodeId,
        sig: Signature,
        ctx: &mut dyn Context<EchoMsg>,
    ) {
        if round != self.round {
            return;
        }
        let set = self.signers.entry(round).or_default();
        if !set.insert(signer) {
            return;
        }
        self.sigs.entry(round).or_default().push((signer, sig));
        if set.len() > self.f {
            self.fire_pulse(round, ctx);
        }
    }

    fn fire_pulse(&mut self, round: u64, ctx: &mut dyn Context<EchoMsg>) {
        ctx.pulse(round);
        let bundle = EchoMsg {
            round,
            sigs: self.sigs.remove(&round).unwrap_or_default(),
        };
        ctx.broadcast(bundle);
        self.signers.remove(&round);
        self.round = round + 1;
        let id = ctx.set_timer_at(ctx.local_time() + self.period);
        self.timers
            .insert(id, TimerKind::RoundTimer { round: round + 1 });
    }
}

impl Automaton for EchoSyncNode {
    type Msg = EchoMsg;

    fn on_init(&mut self, ctx: &mut dyn Context<EchoMsg>) {
        let id = ctx.set_timer_at(ctx.local_time() + self.period);
        self.timers.insert(id, TimerKind::RoundTimer { round: 1 });
    }

    fn on_message(&mut self, _from: NodeId, msg: EchoMsg, ctx: &mut dyn Context<EchoMsg>) {
        if msg.round != self.round || msg.sigs.len() > self.n {
            return;
        }
        let bytes = echo_sign_bytes(msg.round);
        let valid: Vec<(NodeId, Signature)> = msg
            .sigs
            .into_iter()
            .filter(|(signer, sig)| {
                signer.index() < self.n && ctx.verifier().verify(*signer, &bytes, sig)
            })
            .collect();
        for (signer, sig) in valid {
            self.add_signature(msg.round, signer, sig, ctx);
            if msg.round != self.round {
                break; // pulse fired; round advanced
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<EchoMsg>) {
        let Some(TimerKind::RoundTimer { round }) = self.timers.remove(&timer) else {
            return;
        };
        if round != self.round {
            return;
        }
        // Sign and broadcast our own round signature; it also counts
        // towards our own threshold.
        let sig = ctx.signer().sign(&echo_sign_bytes(round));
        let own = EchoMsg {
            round,
            sigs: vec![(self.me, sig.clone())],
        };
        ctx.broadcast(own);
        self.add_signature(round, self.me, sig, ctx);
    }
}

#[cfg(test)]
mod tests {
    use crusader_sim::metrics::pulse_stats;
    use crusader_sim::{DelayModel, SilentAdversary, SimBuilder};
    use crusader_time::drift::DriftModel;
    use crusader_time::Time;

    use super::*;

    fn run_echo(
        n: usize,
        f: usize,
        faulty: Vec<usize>,
        pulses: u64,
        seed: u64,
    ) -> crusader_sim::Trace {
        let d = Dur::from_millis(1.0);
        let u = Dur::from_micros(10.0);
        let period = Dur::from_millis(10.0);
        SimBuilder::new(n)
            .faulty(faulty)
            .link(d, u)
            .delays(DelayModel::Random)
            .drift(DriftModel::RandomStable, 1.0001, Dur::from_millis(1.0))
            .seed(seed)
            .horizon(Time::from_secs(10.0))
            .max_pulses(pulses)
            .build(
                |me| EchoSyncNode::new(me, n, f, period),
                Box::new(SilentAdversary),
            )
            .run()
    }

    #[test]
    fn fault_free_pulses_with_skew_at_most_d() {
        let trace = run_echo(4, 1, vec![], 8, 1);
        let honest: Vec<NodeId> = NodeId::all(4).collect();
        let stats = pulse_stats(&trace, &honest);
        assert_eq!(stats.complete_pulses, 8);
        // Skew bounded by one relay hop: d (+ slack for drift).
        assert!(
            stats.max_skew <= Dur::from_millis(1.1),
            "skew {}",
            stats.max_skew
        );
    }

    #[test]
    fn tolerates_ceil_n_2_minus_1_silent_faults() {
        // n = 5, f = 2: beyond n/3, fine for echo sync.
        let trace = run_echo(5, 2, vec![3, 4], 8, 3);
        let honest: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let stats = pulse_stats(&trace, &honest);
        assert_eq!(stats.complete_pulses, 8);
        assert!(
            stats.max_skew <= Dur::from_millis(1.1),
            "skew {}",
            stats.max_skew
        );
    }

    #[test]
    fn selective_attack_pins_skew_at_order_d() {
        // The point of the comparison: under the selective-signature
        // attack, echo-sync skew is Θ(d) — three orders of magnitude
        // above u = 10 µs — no matter how small u is.
        let d = Dur::from_millis(1.0);
        let u = Dur::from_micros(10.0);
        let period = Dur::from_millis(10.0);
        let (n, f) = (4usize, 1usize);
        let trace = SimBuilder::new(n)
            .faulty([3])
            .link(d, u)
            .delays(DelayModel::Random)
            .drift(DriftModel::RandomStable, 1.0001, Dur::from_millis(1.0))
            .seed(7)
            .horizon(Time::from_secs(10.0))
            .max_pulses(10)
            .build(
                |me| EchoSyncNode::new(me, n, f, period),
                Box::new(crate::adversary::SelectiveEcho::new(NodeId::new(0))),
            )
            .run();
        let honest: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let stats = pulse_stats(&trace, &honest);
        assert_eq!(stats.complete_pulses, 10);
        let steady = crusader_sim::metrics::steady_state_skew(&stats, 4).unwrap();
        assert!(
            steady > d * 0.5,
            "selective attack should pin skew near d: {steady}"
        );
        assert!(steady <= d + Dur::from_micros(100.0), "but not beyond d: {steady}");
    }

    #[test]
    #[should_panic(expected = "echo sync needs")]
    fn threshold_beyond_resilience_panics() {
        let _ = EchoSyncNode::new(NodeId::new(0), 4, 2, Dur::from_millis(1.0));
    }
}
