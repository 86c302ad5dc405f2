use std::collections::BTreeSet;

use crusader_crypto::{KnowledgeTracker, NodeId, RestrictedSigner, Verifier};
use crusader_time::{Dur, HardwareClock, Time};

/// The Byzantine adversary of an execution.
///
/// The adversary controls every faulty node and — within the model bounds —
/// all message delays. It sees real time, all hardware clocks, and every
/// message delivered to a faulty node. It does *not* see the contents of
/// honest↔honest messages (channels are private), only their existence and
/// timing (it schedules their delays, after all).
///
/// All methods have no-op defaults, so `struct Crash;` +
/// `impl<M> Adversary<M> for Crash {}` is the classic crash-fault
/// adversary.
pub trait Adversary<M>: Send {
    /// Called once at time 0.
    fn on_init(&mut self, api: &mut AdversaryApi<'_, M>) {
        let _ = api;
    }

    /// A message from `from` was delivered to the faulty node `to`.
    /// Signatures carried by `msg` have already been recorded as learned.
    fn on_deliver(&mut self, to: NodeId, from: NodeId, msg: &M, api: &mut AdversaryApi<'_, M>) {
        let _ = (to, from, msg, api);
    }

    /// An honest node sent a message (metadata only — content is private).
    fn on_honest_send(&mut self, from: NodeId, to: NodeId, api: &mut AdversaryApi<'_, M>) {
        let _ = (from, to, api);
    }

    /// A timer scheduled via [`AdversaryApi::set_timer`] fired.
    fn on_timer(&mut self, key: u64, api: &mut AdversaryApi<'_, M>) {
        let _ = (key, api);
    }

    /// Chooses the delay for a message, overriding the engine's
    /// [`DelayModel`](crate::DelayModel) when the model is
    /// [`AdversaryChoice`](crate::DelayModel::AdversaryChoice). Returning
    /// `None` falls back to a uniform draw. The returned delay must lie
    /// within `bounds`.
    fn pick_delay(&mut self, from: NodeId, to: NodeId, bounds: (Dur, Dur)) -> Option<Dur> {
        let _ = (from, to, bounds);
        None
    }

    /// Declares that this adversary's event callbacks ([`on_init`],
    /// [`on_deliver`], [`on_honest_send`], [`on_timer`]) are all no-ops,
    /// letting the engine skip them entirely — the per-callback cost is
    /// small but it is paid on *every* message in the system.
    ///
    /// The answer must be constant for the lifetime of the adversary (the
    /// engine samples it once). [`pick_delay`](Self::pick_delay) is *not*
    /// covered: a passive adversary is still consulted for delays under
    /// [`AdversaryChoice`](crate::DelayModel::AdversaryChoice). Since a
    /// passive adversary never receives an [`AdversaryApi`], the
    /// [`KnowledgeTracker`] is unobservable to it, and the engine skips
    /// signature-knowledge bookkeeping as well. Without a chaos timeline
    /// nothing then observes a delivery to a faulty node at all, so the
    /// engine does not queue those deliveries either: it counts
    /// them in the trace where the queue would have popped them
    /// ([`Trace::tallied_deliveries`](crate::Trace::tallied_deliveries)).
    ///
    /// [`on_init`]: Self::on_init
    /// [`on_deliver`]: Self::on_deliver
    /// [`on_honest_send`]: Self::on_honest_send
    /// [`on_timer`]: Self::on_timer
    fn is_passive(&self) -> bool {
        false
    }
}

/// The adversary that does nothing: faulty nodes are silent (crashed from
/// the start). The baseline fault model for liveness tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct SilentAdversary;

impl<M> Adversary<M> for SilentAdversary {
    fn is_passive(&self) -> bool {
        true
    }
}

pub(crate) enum AdvEffect<M> {
    SendAs {
        from: NodeId,
        to: NodeId,
        msg: M,
        delay: Option<Dur>,
    },
    SetTimer {
        at: Time,
        key: u64,
    },
}

/// Capabilities handed to [`Adversary`] callbacks.
///
/// Sends are buffered and validated by the engine after the callback
/// returns: the claimed sender must be faulty, the delay must respect the
/// faulty-link bounds, and — crucially — every honest signature carried by
/// the message must already have been learned (otherwise the send is
/// dropped and counted in
/// [`Trace::forgeries_blocked`](crate::Trace::forgeries_blocked)).
pub struct AdversaryApi<'a, M> {
    pub(crate) now: Time,
    pub(crate) n: usize,
    pub(crate) corrupted: &'a BTreeSet<NodeId>,
    pub(crate) signer: &'a RestrictedSigner,
    pub(crate) verifier: &'a dyn Verifier,
    pub(crate) clocks: &'a [HardwareClock],
    pub(crate) knowledge: &'a KnowledgeTracker,
    /// Borrowed from the engine's pooled buffer, so constructing an api
    /// per callback allocates nothing.
    pub(crate) effects: &'a mut Vec<AdvEffect<M>>,
}

impl<'a, M> AdversaryApi<'a, M> {
    /// Current real time (the adversary, unlike honest nodes, sees it).
    #[must_use]
    pub fn now(&self) -> Time {
        self.now
    }

    /// System size `n`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The corrupted set, borrowed for the whole callback, so it can be
    /// read while sends go through `self`.
    #[must_use]
    pub fn corrupted(&self) -> &'a BTreeSet<NodeId> {
        self.corrupted
    }

    /// The hardware clock of `node`.
    #[must_use]
    pub fn clock(&self, node: NodeId) -> &HardwareClock {
        &self.clocks[node.index()]
    }

    /// Signing capability for the corrupted nodes.
    #[must_use]
    pub fn signer(&self) -> &RestrictedSigner {
        self.signer
    }

    /// The shared PKI verifier.
    #[must_use]
    pub fn verifier(&self) -> &dyn Verifier {
        self.verifier
    }

    /// The signature-knowledge tracker (read-only).
    #[must_use]
    pub fn knowledge(&self) -> &KnowledgeTracker {
        self.knowledge
    }

    /// Sends `msg` from the faulty node `from` to `to`, with the delay
    /// chosen by the engine's delay model.
    pub fn send_as(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.effects.push(AdvEffect::SendAs {
            from,
            to,
            msg,
            delay: None,
        });
    }

    /// Sends `msg` from the faulty node `from` to `to` with an explicit
    /// `delay`, which must lie within the faulty-link bounds
    /// `[d − ũ, d]`.
    pub fn send_as_with_delay(&mut self, from: NodeId, to: NodeId, msg: M, delay: Dur) {
        self.effects.push(AdvEffect::SendAs {
            from,
            to,
            msg,
            delay: Some(delay),
        });
    }

    /// Schedules [`Adversary::on_timer`] with `key` at real time `at`
    /// (clamped to now if already past).
    pub fn set_timer(&mut self, at: Time, key: u64) {
        self.effects.push(AdvEffect::SetTimer { at, key });
    }
}
