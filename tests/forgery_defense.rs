//! The signature assumption, attacked: adversaries that try to forge,
//! replay stale rounds, or use signatures before learning them. The
//! engine's knowledge gate (the model's well-formedness rule) plus the
//! protocol's round tagging must neutralize all of it.

use crusader::core::{bounds, pulse_sign_bytes, Carry, CpsNode, Params};
use crusader::crypto::{NodeId, Signature};
use crusader::sim::metrics::pulse_stats;
use crusader::sim::{Adversary, AdversaryApi, DelayModel, SimBuilder};
use crusader::time::drift::DriftModel;
use crusader::time::{Dur, Time};

fn params() -> Params {
    Params::max_resilience(5, Dur::from_millis(1.0), Dur::from_micros(15.0), 1.0002)
}

/// Runs CPS against `adv`; every attack here must leave the honest nodes
/// live for `pulses` pulses and inside Theorem 17's bounds.
fn run_with(adv: Box<dyn Adversary<Carry>>, pulses: u64) -> crusader::sim::Trace {
    let p = params();
    let derived = p.derive().unwrap();
    let trace = SimBuilder::new(p.n)
        .faulty([3, 4])
        .link(p.d, p.u)
        .delays(DelayModel::Random)
        .drift(DriftModel::RandomStable, p.theta, derived.s)
        .seed(23)
        .horizon(Time::from_secs(120.0))
        .max_pulses(pulses)
        .build(|me| CpsNode::new(me, p, derived), adv)
        .run();
    let stats = pulse_stats(&trace, &(0..3).map(NodeId::new).collect::<Vec<_>>());
    assert_eq!(stats.complete_pulses, pulses as usize);
    assert_eq!(bounds::definition3(&stats, &derived), Ok(()));
    trace
}

/// Tries to send a Carry for an honest dealer with a fabricated
/// signature tag — blocked by the knowledge gate before verification
/// even matters.
struct Fabricator {
    fired: bool,
}

impl Adversary<Carry> for Fabricator {
    fn on_deliver(
        &mut self,
        _to: NodeId,
        _from: NodeId,
        msg: &Carry,
        api: &mut AdversaryApi<'_, Carry>,
    ) {
        if self.fired {
            return;
        }
        self.fired = true;
        // Forge: honest dealer 0, made-up signature, current round.
        api.send_as(
            NodeId::new(3),
            NodeId::new(1),
            Carry {
                round: msg.round,
                dealer: NodeId::new(0),
                signature: Signature::Symbolic(0xBAD),
            },
        );
    }
}

#[test]
fn fabricated_signatures_are_blocked_by_the_gate() {
    let trace = run_with(Box::new(Fabricator { fired: false }), 6);
    assert_eq!(trace.forgeries_blocked, 1);
}

/// Replays *learned* round-r signatures during round r+1 — allowed by
/// the gate (the adversary really does know them) but useless against
/// the protocol's round tagging.
struct StaleReplayer {
    stash: Vec<Carry>,
}

impl Adversary<Carry> for StaleReplayer {
    fn on_deliver(
        &mut self,
        _to: NodeId,
        from: NodeId,
        msg: &Carry,
        api: &mut AdversaryApi<'_, Carry>,
    ) {
        if from == msg.dealer && !api.corrupted().contains(&msg.dealer) {
            // New honest round signature observed: replay everything we
            // stashed from previous rounds at every honest node.
            let stale: Vec<Carry> = self
                .stash
                .iter()
                .filter(|c| c.round < msg.round)
                .cloned()
                .collect();
            for carry in stale {
                for v in NodeId::all(api.n()) {
                    if !api.corrupted().contains(&v) {
                        api.send_as(NodeId::new(4), v, carry.clone());
                    }
                }
            }
            self.stash.push(msg.clone());
        }
    }
}

#[test]
fn stale_round_replays_are_ignored_by_round_tagging() {
    let trace = run_with(Box::new(StaleReplayer { stash: Vec::new() }), 8);
    // Replays are legal (learned) — nothing blocked...
    assert_eq!(trace.forgeries_blocked, 0);
    // ...and nothing gained.
    assert!(trace.violations.is_empty(), "{:?}", trace.violations);
}

/// Signs future rounds with the *corrupted* nodes' own keys (always
/// allowed) and floods them early — outside every honest acceptance
/// window, so instances for those dealers go ⊥ and get absorbed by the
/// discard rule.
struct FutureSpammer {
    done: bool,
}

impl Adversary<Carry> for FutureSpammer {
    fn on_init(&mut self, api: &mut AdversaryApi<'_, Carry>) {
        if self.done {
            return;
        }
        self.done = true;
        for round in 1..=20u64 {
            for z in [NodeId::new(3), NodeId::new(4)] {
                let sig = api.signer().sign_as(z, &pulse_sign_bytes(round, z));
                for v in NodeId::all(api.n()) {
                    if !api.corrupted().contains(&v) {
                        api.send_as(
                            z,
                            v,
                            Carry {
                                round,
                                dealer: z,
                                signature: sig.clone(),
                            },
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn early_future_round_floods_only_bot_their_own_instances() {
    let trace = run_with(Box::new(FutureSpammer { done: false }), 8);
    assert_eq!(trace.forgeries_blocked, 0);
    assert!(trace.violations.is_empty(), "{:?}", trace.violations);
}

/// Cross-round signature confusion: sends round-r signatures labelled as
/// round r+1 (the Carry's round field lies about what was signed). The
/// knowledge gate blocks it first — the adversary learned the claim
/// "signed bytes(r)", not "signed bytes(r+1)" — and even if it passed,
/// verification would catch the byte mismatch.
struct LabelLiar;

impl Adversary<Carry> for LabelLiar {
    fn on_deliver(
        &mut self,
        _to: NodeId,
        from: NodeId,
        msg: &Carry,
        api: &mut AdversaryApi<'_, Carry>,
    ) {
        if from != msg.dealer || api.corrupted().contains(&msg.dealer) {
            return;
        }
        // Mislabel the (learned, genuine) signature as next round's.
        let lie = Carry {
            round: msg.round + 1,
            dealer: msg.dealer,
            signature: msg.signature.clone(),
        };
        for v in NodeId::all(api.n()) {
            if !api.corrupted().contains(&v) {
                api.send_as(NodeId::new(3), v, lie.clone());
            }
        }
    }
}

#[test]
fn mislabelled_signatures_fail_verification() {
    let trace = run_with(Box::new(LabelLiar), 8);
    // The gate treats the relabelled claim as unlearned.
    assert!(trace.forgeries_blocked > 0);
    // Every recorded violation is the gate doing its job; none may come
    // from the protocol itself.
    assert!(
        trace
            .violations
            .iter()
            .all(|v| v.starts_with("blocked forgery")),
        "unexpected protocol violation"
    );
}
