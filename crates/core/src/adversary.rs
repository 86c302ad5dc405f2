//! Byzantine strategies against Crusader Pulse Synchronization, used by
//! the resilience and attack experiments (E3, E9, gauntlet example).
//!
//! All strategies operate through the engine-enforced
//! [`crusader_sim::AdversaryApi`]: they can sign only as
//! corrupted nodes and can only replay honest signatures they have
//! actually received.

use std::collections::HashSet;

use crusader_crypto::NodeId;
use crusader_sim::{Adversary, AdversaryApi};
use crusader_time::Dur;

use crate::messages::{pulse_sign_bytes, Carry};
use crate::params::{Derived, Params};
use crate::tcb::TcbWindows;

/// Re-export of the crash/silent adversary for convenience.
pub use crusader_sim::SilentAdversary;

/// The *rushing forwarder*: echoes every honest dealer broadcast it
/// receives back into the network at the minimum faulty-link delay.
///
/// With `ũ = u` this is harmless — the paper's TCB windows are sized so a
/// legitimate echo can never arrive early enough to discredit an honest
/// dealer. With `ũ > u` (faulty links may undercut the minimum delay) the
/// forwarded signature arrives *inside* the rejection window
/// `(H_v(p), h + d − 2u)` and honest nodes start outputting `⊥` for honest
/// dealers: exactly the attack behind Theorem 5's `Ω(ũ)` lower bound and
/// the reason network designers must enforce minimum delays even on links
/// with one faulty endpoint. Experiment E9 measures the degradation.
#[derive(Debug, Default)]
pub struct RushingForwarder {
    /// Forward each learned signature only once per (round, dealer).
    forwarded: HashSet<(u64, NodeId)>,
}

impl RushingForwarder {
    /// Creates the strategy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Adversary<Carry> for RushingForwarder {
    fn on_deliver(
        &mut self,
        _to: NodeId,
        from: NodeId,
        msg: &Carry,
        api: &mut AdversaryApi<'_, Carry>,
    ) {
        // Only the dealer's own (direct) broadcast is worth rushing; an
        // echo of it carries the same signature, already forwarded.
        if from != msg.dealer || api.corrupted().contains(&msg.dealer) {
            return;
        }
        if !self.forwarded.insert((msg.round, msg.dealer)) {
            return;
        }
        let corrupted: Vec<NodeId> = api.corrupted().iter().copied().collect();
        let n = api.n();
        for z in corrupted {
            for v in NodeId::all(n) {
                if api.corrupted().contains(&v) {
                    continue;
                }
                // Engine draws the delay from the faulty-link bounds
                // [d − ũ, d]; request the minimum by picking it ourselves.
                api.send_as(z, v, msg.clone());
            }
        }
    }

    fn pick_delay(&mut self, _from: NodeId, _to: NodeId, bounds: (Dur, Dur)) -> Option<Dur> {
        Some(bounds.0)
    }
}

/// The *staggered dealer*: corrupted dealers broadcast their (single,
/// valid) round signature at different times to different recipients,
/// trying to pull honest offset estimates apart.
///
/// This is the strongest value-level attack available to a faulty dealer
/// in CPS — it cannot equivocate on the signature (there is only one
/// `⟨r⟩_z`), so all it controls is *timing*. TCB's echo rejection bounds
/// the achievable spread by `(1 − 1/θ)d + 2u/θ` (Lemma 11); beyond that,
/// honest nodes output `⊥` and the instance is discarded, so the attack
/// buys less than an honest-looking dealer would.
#[derive(Debug)]
pub struct StaggeredDealer {
    /// Extra delay applied to the "late" half of recipients.
    pub stagger: Dur,
    /// How far after observing round `r` to send round `r + 1`'s
    /// broadcast (so it lands inside the next acceptance window). `None`
    /// sends immediately for the round just observed — a lazier attacker
    /// that usually misses the window and merely gets itself ⊥'d.
    lead: Option<Dur>,
    started: HashSet<u64>,
    pending: Vec<(u64, NodeId, NodeId, Carry)>,
}

impl StaggeredDealer {
    /// Creates the lazy variant: broadcast as soon as a round is
    /// observed. By then the acceptance windows are mostly gone, so this
    /// mainly demonstrates that late dealers are simply ignored.
    #[must_use]
    pub fn new(stagger: Dur) -> Self {
        StaggeredDealer {
            stagger,
            lead: None,
            started: HashSet::new(),
            pending: Vec::new(),
        }
    }

    /// Creates the *anticipating* variant: the adversary (which knows the
    /// clocks and the protocol's timing constants — everything in the
    /// model is known to it) predicts round `r + 1`'s pulses from its
    /// observation of round `r` and times its broadcasts to land
    /// mid-window, with the late half arriving `stagger` later.
    #[must_use]
    pub fn anticipating(stagger: Dur, params: &Params, derived: &Derived) -> Self {
        let windows = TcbWindows::from_params(params, derived);
        // Observation of round r happens ≈ θS + d after the earliest
        // pulse; the next pulses are ≈ T/θ later. An honest-looking
        // arrival produces the offset estimate Δ ≈ 0; we aim the early
        // half at Δ ≈ −stagger/2 and the late half at Δ ≈ +stagger/2, so
        // the faulty estimates *straddle* the honest range and drag the
        // two groups' midpoints apart (below the Lemma 11 consistency
        // bound this is undetectable; above it, echo rejection — when
        // enabled — converts the dealer to ⊥ instead).
        let lead = derived.t_nominal / params.theta - windows.send_offset - params.d
            + derived.s
            - stagger * 0.5;
        StaggeredDealer {
            stagger,
            lead: Some(lead.max(Dur::ZERO)),
            started: HashSet::new(),
            pending: Vec::new(),
        }
    }

    fn schedule(
        &mut self,
        round: u64,
        at_now: bool,
        base: crusader_time::Time,
        api: &mut AdversaryApi<'_, Carry>,
    ) {
        let n = api.n();
        let corrupted: Vec<NodeId> = api.corrupted().iter().copied().collect();
        for z in corrupted {
            let sig = api.signer().sign_as(z, &pulse_sign_bytes(round, z));
            for v in NodeId::all(n) {
                if api.corrupted().contains(&v) {
                    continue;
                }
                let carry = Carry {
                    round,
                    dealer: z,
                    signature: sig.clone(),
                };
                // Late (+stagger) to even-index nodes, early to odd —
                // matching DriftModel::ExtremalSplit, where even nodes
                // carry slow clocks (pulse late): the push reinforces
                // their drift instead of fighting it.
                let extra = if v.index() % 2 == 0 {
                    self.stagger
                } else {
                    Dur::ZERO
                };
                if at_now && extra == Dur::ZERO {
                    api.send_as(z, v, carry);
                } else {
                    let key = round << 20 | (z.index() as u64) << 10 | v.index() as u64;
                    self.pending.push((key, z, v, carry));
                    api.set_timer(base + extra, key);
                }
            }
        }
    }
}

impl Adversary<Carry> for StaggeredDealer {
    fn on_deliver(
        &mut self,
        _to: NodeId,
        from: NodeId,
        msg: &Carry,
        api: &mut AdversaryApi<'_, Carry>,
    ) {
        // First honest direct broadcast of round r tells us the round has
        // started.
        if from != msg.dealer || api.corrupted().contains(&msg.dealer) {
            return;
        }
        match self.lead {
            None => {
                // Lazy: broadcast for the observed round immediately.
                if self.started.insert(msg.round) {
                    let now = api.now();
                    self.schedule(msg.round, true, now, api);
                }
            }
            Some(lead) => {
                // Anticipating: observed round r, attack round r + 1.
                if self.started.insert(msg.round + 1) {
                    let base = api.now() + lead;
                    self.schedule(msg.round + 1, false, base, api);
                }
            }
        }
    }

    fn on_timer(&mut self, key: u64, api: &mut AdversaryApi<'_, Carry>) {
        if let Some(pos) = self.pending.iter().position(|(k, ..)| *k == key) {
            let (_, z, v, carry) = self.pending.remove(pos);
            api.send_as(z, v, carry);
        }
    }

    fn pick_delay(&mut self, _from: NodeId, _to: NodeId, bounds: (Dur, Dur)) -> Option<Dur> {
        Some(bounds.0)
    }
}

#[cfg(test)]
mod tests {
    use crusader_crypto::NodeId;
    use crusader_sim::metrics::{pulse_stats, PulseStats};
    use crusader_sim::{DelayModel, LinkConfig, SimBuilder};
    use crusader_time::drift::DriftModel;
    use crusader_time::Time;

    use crate::bounds;
    use crate::cps::CpsNode;
    use crate::params::Params;

    use super::*;

    fn params(n: usize) -> Params {
        Params::max_resilience(n, Dur::from_millis(1.0), Dur::from_micros(20.0), 1.0002)
    }

    fn run_with(
        n: usize,
        faulty: Vec<usize>,
        adv: Box<dyn Adversary<Carry>>,
        u_tilde: Option<Dur>,
        pulses: u64,
    ) -> (crusader_sim::Trace, PulseStats) {
        let p = params(n);
        let derived = p.derive().unwrap();
        let honest: Vec<NodeId> = NodeId::all(n).filter(|v| !faulty.contains(&v.index())).collect();
        let mut link = LinkConfig::new(p.d, p.u);
        if let Some(ut) = u_tilde {
            link = link.with_u_tilde(ut);
        }
        let trace = SimBuilder::new(n)
            .faulty(faulty)
            .link_config(link)
            .delays(DelayModel::Random)
            .drift(DriftModel::RandomStable, p.theta, derived.s)
            .seed(17)
            .horizon(Time::from_secs(60.0))
            .max_pulses(pulses)
            .build(|me| CpsNode::new(me, p, derived), adv)
            .run();
        let stats = pulse_stats(&trace, &honest);
        (trace, stats)
    }

    #[test]
    fn rushing_forwarder_is_harmless_when_u_tilde_equals_u() {
        let (trace, stats) = run_with(5, vec![4], Box::new(RushingForwarder::new()), None, 8);
        assert_eq!(stats.complete_pulses, 8);
        let derived = params(5).derive().unwrap();
        assert_eq!(bounds::definition3(&stats, &derived), Ok(()));
        assert!(trace.violations.is_empty(), "{:?}", trace.violations);
    }

    #[test]
    fn rushing_forwarder_discredits_honest_dealers_when_u_tilde_large() {
        // ũ = 300 µs ≫ u = 20 µs: forwarded signatures undercut the
        // rejection horizon, so honest dealers start getting ⊥'d. The
        // protocol must still be live (⊥ counts against the fault
        // budget), but the error budget degrades.
        let (trace, stats) = run_with(
            5,
            vec![4],
            Box::new(RushingForwarder::new()),
            Some(Dur::from_micros(300.0)),
            8,
        );
        // Liveness persists...
        assert_eq!(stats.complete_pulses, 8);
        // ...and the attack visibly fires: ⊥ outputs now exceed what the
        // fault budget explains, which CPS records as violations.
        assert!(
            !trace.violations.is_empty(),
            "expected ⊥-budget violations under the rushing attack"
        );
    }

    #[test]
    fn staggered_dealer_bounded_by_echo_rejection() {
        let p = params(5);
        let derived = p.derive().unwrap();
        let (_, stats) = run_with(
            5,
            vec![4],
            Box::new(StaggeredDealer::new(Dur::from_micros(200.0))),
            None,
            10,
        );
        assert_eq!(stats.complete_pulses, 10);
        assert_eq!(bounds::definition3(&stats, &derived), Ok(()));
    }

    #[test]
    fn anticipating_staggered_dealers_still_bounded() {
        // The strongest timing attack in the library: round-anticipating
        // dealers straddling the honest estimates. Echo rejection keeps
        // the skew within S (ablation A1 shows it escaping without).
        let p = params(5);
        let derived = p.derive().unwrap();
        let (_, stats) = run_with(
            5,
            vec![3, 4],
            Box::new(StaggeredDealer::anticipating(
                Dur::from_micros(300.0),
                &p,
                &derived,
            )),
            None,
            25,
        );
        assert_eq!(stats.complete_pulses, 25);
        assert_eq!(bounds::definition3(&stats, &derived), Ok(()));
    }
}
