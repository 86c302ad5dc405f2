//! Signed rejoin protocol: how a crashed node rejoins a running CPS fleet.
//!
//! The paper's central asset — unforgeable signatures — is exactly what
//! makes principled recovery possible. A round-`r` pulse certificate is
//! `f + 1` signatures by *distinct* dealers over the existing `⟨r⟩_u`
//! vocabulary ([`crate::messages::pulse_sign_bytes`]); since at most `f`
//! nodes are faulty, a verifying certificate proves at least one honest
//! node generated pulse `r`, so a recovering node may adopt `r` without
//! trusting any single peer.
//!
//! The handshake:
//!
//! 1. On recovery, the node clears all round-in-progress state (stale
//!    timers, TCB instances, verification memos), broadcasts
//!    [`RecoveryMsg::ResyncRequest`], and arms a collection deadline one
//!    round trip (`θ·(2d + u)`) in the future.
//! 2. Every peer that has completed at least one round answers with
//!    [`RecoveryMsg::ResyncReply`]: its latest [`PulseCertificate`] plus
//!    `since_pulse`, how long ago on the replier's clock that certified
//!    pulse fired.
//! 3. Each verified reply's `since_pulse` is clamped into `[0, 2·P_max]`
//!    (an honest replier mid-round reports up to one period plus the
//!    acceptance deadline). At the deadline the recoverer takes the
//!    *maximum* certified round `r★` and the *median* clamped
//!    `since_pulse` among the replies certifying it. The round is
//!    unforgeable; the timing field is not, so clamp, median and period
//!    folding leave a lying replier less than one period of phase, which
//!    the next midpoint correction absorbs.
//! 4. [`CpsNode`] fast-forwards: it adopts `r★` (plus any whole periods
//!    hiding in `since_pulse`), reconstructs the certified pulse's local
//!    time, and schedules its next pulse one nominal period after it.
//!
//! The catch-up bound ([`crate::bounds::rejoin_catch_up`]): the recovered
//! node pulses again within one nominal period of the deadline (round
//! `r★ + 1`), and that round's ordinary discard-and-midpoint correction
//! pulls it back inside the skew envelope `S` — i.e. zero-violation
//! pulsing resumes within **k = 2 rounds** of the resync deadline. If no
//! reply survives verification the node retries ([`RESYNC_MAX_ATTEMPTS`]
//! times, one round trip apart) and finally free-runs from its stale state
//! so that simultaneous whole-fleet crashes still recover liveness.
//!
//! [`RecoveringNode`] wraps [`CpsNode`] without touching its hot path: the
//! inner automaton still speaks [`Carry`], and the wrapper tunnels it
//! through [`RecoveryMsg::Pulse`].

use crusader_crypto::{CarriesSignatures, NodeId, Signature, SignedClaim, Signer, Verifier};
use crusader_sim::{Automaton, Context, TimerId};
use crusader_time::{Dur, LocalTime};

use crate::cps::CpsNode;
use crate::messages::{pulse_sign_bytes_array, pulse_sign_bytes_cached, Carry};
use crate::params::Params;

/// Resync attempts before a recovering node gives up on certificates and
/// free-runs from stale state (covers whole-fleet outages where nobody is
/// left to answer).
pub const RESYNC_MAX_ATTEMPTS: u32 = 5;

/// Proof that some honest node generated pulse `round`: `f + 1` distinct
/// dealers' signatures over `⟨round⟩_dealer`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PulseCertificate {
    /// The certified round.
    pub round: u64,
    /// `(dealer, signature)` pairs; valid certificates hold exactly
    /// `f + 1` entries with pairwise-distinct dealers.
    pub sigs: Vec<(NodeId, Signature)>,
}

impl PulseCertificate {
    /// Verifies the certificate against the PKI: exactly `f + 1` entries,
    /// pairwise-distinct in-range dealers, every signature valid for
    /// `⟨round⟩_dealer`, and a non-zero round (round 0 precedes every
    /// pulse and certifies nothing).
    #[must_use]
    pub fn verify(&self, f: usize, n: usize, verifier: &dyn Verifier) -> bool {
        if self.round == 0 || self.sigs.len() != f + 1 {
            return false;
        }
        let mut seen = vec![false; n];
        for (dealer, sig) in &self.sigs {
            let idx = dealer.index();
            if idx >= n || seen[idx] {
                return false;
            }
            seen[idx] = true;
            if !verifier.verify(*dealer, &pulse_sign_bytes_array(self.round, *dealer), sig) {
                return false;
            }
        }
        true
    }
}

/// A peer's answer to a resync request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResyncReply {
    /// The replier's latest pulse certificate.
    pub cert: PulseCertificate,
    /// How long ago, on the *replier's* clock, the certified pulse fired.
    /// Unauthenticated — the recoverer aggregates and clamps (module
    /// docs).
    pub since_pulse: Dur,
}

/// Wire type of a recovery-capable fleet: ordinary CPS traffic tunneled
/// next to the rejoin handshake.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryMsg {
    /// An ordinary CPS message (`⟨r⟩_u` carry), tunneled unchanged.
    Pulse(Carry),
    /// "I just recovered — send me your latest pulse certificate."
    ResyncRequest,
    /// The certificate answer (step 2 of the handshake).
    ResyncReply(ResyncReply),
}

impl CarriesSignatures for RecoveryMsg {
    fn for_each_claim(&self, f: &mut dyn FnMut(SignedClaim)) {
        match self {
            RecoveryMsg::Pulse(carry) => carry.for_each_claim(f),
            RecoveryMsg::ResyncRequest => {}
            RecoveryMsg::ResyncReply(reply) => {
                for (dealer, sig) in &reply.cert.sigs {
                    f(SignedClaim::new(
                        *dealer,
                        pulse_sign_bytes_cached(reply.cert.round, *dealer),
                        sig.clone(),
                    ));
                }
            }
        }
    }

    fn claims(&self) -> Vec<SignedClaim> {
        let mut claims = Vec::new();
        self.for_each_claim(&mut |claim| claims.push(claim));
        claims
    }
}

/// Presents the inner [`CpsNode`]'s `Carry` world on top of a
/// [`RecoveryMsg`] context: sends wrap in [`RecoveryMsg::Pulse`],
/// everything else passes through.
struct WrapCtx<'a> {
    inner: &'a mut dyn Context<RecoveryMsg>,
}

impl Context<Carry> for WrapCtx<'_> {
    fn me(&self) -> NodeId {
        self.inner.me()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn local_time(&self) -> LocalTime {
        self.inner.local_time()
    }

    fn send(&mut self, to: NodeId, msg: Carry) {
        self.inner.send(to, RecoveryMsg::Pulse(msg));
    }

    fn broadcast(&mut self, msg: Carry) {
        self.inner.broadcast(RecoveryMsg::Pulse(msg));
    }

    fn set_timer_at(&mut self, at: LocalTime) -> TimerId {
        self.inner.set_timer_at(at)
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        self.inner.cancel_timer(timer);
    }

    fn pulse(&mut self, index: u64) {
        self.inner.pulse(index);
    }

    fn signer(&self) -> &dyn Signer {
        self.inner.signer()
    }

    fn verifier(&self) -> &dyn Verifier {
        self.inner.verifier()
    }

    fn mark_violation(&mut self, description: String) {
        self.inner.mark_violation(description);
    }
}

/// A [`CpsNode`] wrapped with the signed rejoin protocol.
///
/// Behaves identically to the bare automaton until
/// [`Automaton::on_recover`] fires; then it runs the handshake described
/// in the module docs and fast-forwards the inner node. While a resync is
/// in flight the node is mute in the pulse protocol (stale-round traffic
/// is dropped, no pulses are scheduled).
pub struct RecoveringNode {
    inner: CpsNode,
    /// Timer for the current attempt's collection deadline; `Some` iff a
    /// resync is in flight.
    collect_timer: Option<TimerId>,
    /// Local time at which the current attempt's collection closes; only
    /// meaningful while `collect_timer` is `Some`.
    collect_deadline: LocalTime,
    /// Verified `(round, since_pulse)` pairs collected this attempt, with
    /// `since_pulse` already normalized to the collection deadline.
    replies: Vec<(u64, Dur)>,
    /// Resync attempts so far in the current recovery.
    attempts: u32,
    /// Local time at which the current recovery began.
    resync_started: Option<LocalTime>,
    /// Completed resyncs: local-clock duration from `on_recover` to the
    /// fast-forward (or free-run fallback) — the node-side
    /// time-to-resync metric.
    resyncs: Vec<Dur>,
}

impl RecoveringNode {
    /// Wraps an inner CPS automaton.
    #[must_use]
    pub fn new(inner: CpsNode) -> Self {
        RecoveringNode {
            inner,
            collect_timer: None,
            collect_deadline: LocalTime::ZERO,
            replies: Vec::new(),
            attempts: 0,
            resync_started: None,
            resyncs: Vec::new(),
        }
    }

    /// The wrapped automaton.
    #[must_use]
    pub fn inner(&self) -> &CpsNode {
        &self.inner
    }

    /// Local-clock durations of every completed resync (request broadcast
    /// to fast-forward), in order.
    #[must_use]
    pub fn resyncs(&self) -> &[Dur] {
        &self.resyncs
    }

    /// True while a resync handshake is in flight.
    #[must_use]
    pub fn resyncing(&self) -> bool {
        self.collect_timer.is_some()
    }

    /// One request→reply round trip on the recoverer's clock,
    /// `θ·(2d + u)`: the collection window of a single attempt.
    #[must_use]
    pub fn collect_window(p: &Params) -> Dur {
        (p.d * 2.0 + p.u) * p.theta
    }

    fn begin_attempt(&mut self, ctx: &mut dyn Context<RecoveryMsg>) {
        self.attempts += 1;
        self.replies.clear();
        ctx.broadcast(RecoveryMsg::ResyncRequest);
        self.collect_deadline = ctx.local_time() + Self::collect_window(self.inner.params());
        self.collect_timer = Some(ctx.set_timer_at(self.collect_deadline));
    }

    fn finish_attempt(&mut self, ctx: &mut dyn Context<RecoveryMsg>) {
        self.collect_timer = None;
        if let Some(&r_max) = self.replies.iter().map(|(r, _)| r).max() {
            // Median since_pulse among the replies certifying the maximum
            // round; the clamp happened on receipt.
            let mut sinces: Vec<Dur> = self
                .replies
                .iter()
                .filter(|(r, _)| *r == r_max)
                .map(|(_, s)| *s)
                .collect();
            sinces.sort_unstable();
            let since = sinces[sinces.len() / 2];
            self.inner
                .fast_forward(r_max, since, &mut WrapCtx { inner: ctx });
            self.record_done(ctx.local_time());
        } else if self.attempts < RESYNC_MAX_ATTEMPTS {
            self.begin_attempt(ctx);
        } else {
            ctx.mark_violation(format!(
                "node {}: no pulse certificate after {} resync attempts; free-running",
                ctx.me(),
                self.attempts
            ));
            self.inner.free_run_restart(&mut WrapCtx { inner: ctx });
            self.record_done(ctx.local_time());
        }
    }

    fn record_done(&mut self, now: LocalTime) {
        if let Some(started) = self.resync_started.take() {
            self.resyncs.push(now - started);
        }
    }
}

impl Automaton for RecoveringNode {
    type Msg = RecoveryMsg;

    fn on_init(&mut self, ctx: &mut dyn Context<RecoveryMsg>) {
        self.inner.on_init(&mut WrapCtx { inner: ctx });
    }

    fn on_message(&mut self, from: NodeId, msg: RecoveryMsg, ctx: &mut dyn Context<RecoveryMsg>) {
        match msg {
            RecoveryMsg::Pulse(carry) => {
                if self.resyncing() {
                    // Mute mid-resync: the round state is stale by
                    // definition, so protocol traffic is meaningless
                    // until the fast-forward lands.
                    return;
                }
                self.inner.on_message(from, carry, &mut WrapCtx { inner: ctx });
            }
            RecoveryMsg::ResyncRequest => {
                if from == ctx.me() || self.resyncing() {
                    // Own broadcast echo, or we're in no position to
                    // certify anything ourselves.
                    return;
                }
                if let Some(reply) = self.inner.resync_reply(ctx.local_time()) {
                    ctx.send(from, RecoveryMsg::ResyncReply(reply));
                }
            }
            RecoveryMsg::ResyncReply(reply) => {
                if !self.resyncing() {
                    return; // late reply from a previous attempt
                }
                let p = *self.inner.params();
                if !reply.cert.verify(p.f, p.n, ctx.verifier()) {
                    return;
                }
                // The timing field is unauthenticated: clamp it first so
                // a lying replier cannot drag the estimate arbitrarily.
                // An honest value ranges over [0, T + completion lag):
                // the certificate covers the last *completed* round, and
                // a replier mid-way through its next round reports its
                // age — up to one period plus the acceptance deadline,
                // which `2·P_max` covers with margin. Beyond the clamp,
                // period folding in the fast-forward bounds what a lie
                // can do to the *phase* to less than one period — which
                // the next midpoint correction absorbs. Then normalize
                // to the collection deadline: the reply aged one transit
                // on the wire (estimate `d − u/2`, error ≤ u/2) and will
                // age further, by an exactly known local amount, until
                // the deadline evaluates the median. Without this the
                // reconstruction would be off by milliseconds where the
                // acceptance windows tolerate only the skew bound `S`.
                let clamped = reply
                    .since_pulse
                    .clamp(Dur::ZERO, self.inner.derived().p_max * 2.0);
                let transit = p.d - p.u * 0.5;
                let to_deadline = self.collect_deadline - ctx.local_time();
                self.replies
                    .push((reply.cert.round, clamped + transit + to_deadline));
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<RecoveryMsg>) {
        if self.collect_timer == Some(timer) {
            self.finish_attempt(ctx);
            return;
        }
        self.inner.on_timer(timer, &mut WrapCtx { inner: ctx });
    }

    fn on_recover(&mut self, ctx: &mut dyn Context<RecoveryMsg>) {
        self.inner.reset_for_rejoin();
        self.attempts = 0;
        self.resync_started = Some(ctx.local_time());
        self.begin_attempt(ctx);
    }
}

#[cfg(test)]
mod tests {
    use crusader_crypto::KeyRing;

    use super::*;
    use crate::messages::pulse_sign_bytes;

    fn params(n: usize) -> Params {
        Params::max_resilience(n, Dur::from_millis(1.0), Dur::from_micros(10.0), 1.0001)
    }

    fn cert(ring: &KeyRing, round: u64, dealers: &[usize]) -> PulseCertificate {
        PulseCertificate {
            round,
            sigs: dealers
                .iter()
                .map(|&d| {
                    let dealer = NodeId::new(d);
                    let sig = ring.signer(dealer).sign(&pulse_sign_bytes(round, dealer));
                    (dealer, sig)
                })
                .collect(),
        }
    }

    #[test]
    fn certificate_verifies_with_f_plus_one_distinct_dealers() {
        let ring = KeyRing::symbolic(4, 1);
        let c = cert(&ring, 3, &[0, 2]);
        assert!(c.verify(1, 4, &*ring.verifier()));
    }

    #[test]
    fn certificate_rejects_wrong_cardinality() {
        let ring = KeyRing::symbolic(4, 1);
        let c = cert(&ring, 3, &[0, 1, 2]);
        assert!(!c.verify(1, 4, &*ring.verifier()));
        let c = cert(&ring, 3, &[0]);
        assert!(!c.verify(1, 4, &*ring.verifier()));
    }

    #[test]
    fn certificate_rejects_duplicate_dealer() {
        let ring = KeyRing::symbolic(4, 1);
        let c = cert(&ring, 3, &[2, 2]);
        assert!(!c.verify(1, 4, &*ring.verifier()));
    }

    #[test]
    fn certificate_rejects_round_zero_and_bad_signature() {
        let ring = KeyRing::symbolic(4, 1);
        let c = cert(&ring, 0, &[0, 1]);
        assert!(!c.verify(1, 4, &*ring.verifier()));
        let mut c = cert(&ring, 5, &[0, 1]);
        // Signature over the wrong round must fail.
        let dealer = NodeId::new(1);
        c.sigs[1].1 = ring.signer(dealer).sign(&pulse_sign_bytes(4, dealer));
        assert!(!c.verify(1, 4, &*ring.verifier()));
    }

    #[test]
    fn certificate_rejects_out_of_range_dealer() {
        let ring = KeyRing::symbolic(8, 1);
        let c = cert(&ring, 3, &[0, 6]);
        assert!(!c.verify(1, 4, &*ring.verifier()));
    }

    #[test]
    fn recovery_msg_claims_walk_cert_signatures() {
        let ring = KeyRing::symbolic(4, 1);
        let reply = RecoveryMsg::ResyncReply(ResyncReply {
            cert: cert(&ring, 7, &[1, 3]),
            since_pulse: Dur::from_millis(2.0),
        });
        let claims = reply.claims();
        assert_eq!(claims.len(), 2);
        assert_eq!(claims[0].signer, NodeId::new(1));
        assert_eq!(claims[0].message, pulse_sign_bytes(7, NodeId::new(1)));
        assert_eq!(claims[1].signer, NodeId::new(3));
        assert!(RecoveryMsg::ResyncRequest.claims().is_empty());
    }

    #[test]
    fn wrapper_starts_as_a_plain_cps_node() {
        let p = params(4);
        let derived = p.derive().unwrap();
        let node = RecoveringNode::new(CpsNode::new(NodeId::new(0), p, derived));
        assert_eq!(node.inner().round(), 0);
        assert!(!node.resyncing());
        assert!(node.resyncs().is_empty());
    }
}
