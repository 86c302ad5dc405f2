//! The globally ordered half of a simulation step, shared by both
//! simulators.
//!
//! A popped event touches two kinds of state. Its node's automaton,
//! timers and clock belong to the node, and the sharded executor runs
//! that part on lane threads. Everything else — the RNG, the adversary,
//! the signature-knowledge tracker, the trace, the observer, the run
//! limits and `now` — is one [`World`], and every operation on it is
//! defined here once: deciding what a popped event amounts to
//! ([`Env::classify`]), scheduling honest sends with their chaos hooks
//! and delay draw, running the adversary and gating its sends, and
//! recording pulses and violations. [`Sim::run`](crate::Sim::run) calls
//! these as it pops each event; the sharded reconcile calls the same
//! functions while it replays the lanes' mailboxes in `(at, seq)` order.
//! The two simulators differ only in where a scheduled event goes, which
//! is the [`Post`] seam.

use std::collections::BTreeSet;
use std::sync::Arc;

use crusader_crypto::{
    CarriesSignatures, KnowledgeTracker, NodeId, RestrictedSigner, Signer, Verifier,
};
use crusader_time::{Dur, HardwareClock, LocalTime, Time};
use rand::rngs::SmallRng;

use crate::adversary::{AdvEffect, Adversary, AdversaryApi};
use crate::automaton::{Call, Effect, NodeCtx};
use crate::chaos::{ChaosTimeline, RunObserver};
use crate::event::{EventKind, TimerId, TimerSlab};
use crate::network::{DelayModel, LinkConfig};
use crate::trace::{Trace, BLOCKED_FORGERY_PREFIX};

/// What a run fixes at build time. The world reads it, and so does every
/// lane thread of the sharded executor.
pub(crate) struct Env {
    pub(crate) n: usize,
    pub(crate) clocks: Vec<HardwareClock>,
    pub(crate) signers: Vec<Arc<dyn Signer>>,
    pub(crate) verifier: Arc<dyn Verifier>,
    /// The faulty set as a by-index bitmap: the per-message fault checks
    /// (link bounds, delivery routing) are one load instead of a tree
    /// probe.
    pub(crate) faulty_mask: Vec<bool>,
    /// Events after this instant are never processed.
    pub(crate) horizon: Time,
    /// Fault-injection schedule; `None` (the common case) keeps the
    /// per-event checks to a single branch. Every query is a pure
    /// function of simulated time, so lane threads may evaluate it in
    /// parallel.
    pub(crate) chaos: Option<Arc<ChaosTimeline>>,
}

/// What a popped event amounts to (see [`Env::classify`]). `H` is the
/// simulator's message handle ([`Post::Handle`]).
pub(crate) enum Popped<H> {
    /// A delivery to a chaos-crashed node: the network delivered it and
    /// nobody was listening.
    ChaosDrop(H),
    /// A delivery to a faulty node: the adversary sees it.
    Faulty { from: NodeId, to: NodeId, msg: H },
    /// An honest node's handler runs.
    Honest { node: NodeId, call: Call<H> },
    /// A crashed node's timer, deferred to the node's recovery instant.
    Defer {
        node: NodeId,
        id: TimerId,
        resume: Time,
    },
    /// Counted as processed, nothing else.
    Stale,
    /// An adversary timer fires.
    AdvTimer(u64),
}

impl<H> Popped<H> {
    /// Whether the event was a message delivery.
    #[inline]
    pub(crate) fn is_delivery(&self) -> bool {
        matches!(
            self,
            Popped::ChaosDrop(_)
                | Popped::Faulty { .. }
                | Popped::Honest {
                    call: Call::Message { .. },
                    ..
                }
        )
    }
}

impl Env {
    /// Honest node `v`'s handler context at real time `now`.
    pub(crate) fn node_ctx<'a, M>(
        &'a self,
        v: NodeId,
        now: Time,
        timers: &'a mut TimerSlab,
        effects: &'a mut Vec<Effect<M>>,
    ) -> NodeCtx<'a, M> {
        NodeCtx::new(
            v,
            self.n,
            self.clocks[v.index()].read(now),
            &*self.signers[v.index()],
            &*self.verifier,
            timers,
            effects,
        )
    }

    /// The real time at which node `v`'s timer for local time `at`, armed
    /// at real time `now`, fires: `now` if the node's clock already reads
    /// `at` or more, else the instant it comes to read `at`.
    #[inline]
    pub(crate) fn fire_time(&self, v: NodeId, now: Time, at: LocalTime) -> Time {
        let clock = &self.clocks[v.index()];
        if at <= clock.read(now) {
            now
        } else {
            clock.when(at)
        }
    }

    /// Decides what the event `kind`, popped at `at`, amounts to — for
    /// both simulators, in this one place. `timers` is the slab of the
    /// node the event belongs to; firing a live timer consumes its slot.
    // Inlined into every pop loop: returned out of line, `Popped` cost
    // the `sim_mesh` benchmark ~8 % of its event rate (2-core x86-64).
    #[inline(always)]
    pub(crate) fn classify<H>(
        &self,
        timers: &mut TimerSlab,
        at: Time,
        kind: EventKind<H>,
    ) -> Popped<H> {
        let down = |node: NodeId| self.chaos.as_deref().is_some_and(|c| c.down(node, at));
        match kind {
            EventKind::Deliver { from, to, msg } => {
                if down(to) {
                    Popped::ChaosDrop(msg)
                } else if self.faulty_mask[to.index()] {
                    Popped::Faulty { from, to, msg }
                } else {
                    Popped::Honest {
                        node: to,
                        call: Call::Message { from, msg },
                    }
                }
            }
            // A crashed node runs no handlers: its timer is deferred to
            // the recovery instant — *before* the slab fire, so a later
            // cancel still matches — or dropped if the node never comes
            // back.
            EventKind::Timer { node, id } if down(node) => {
                match self.chaos.as_deref().and_then(|c| c.resume_at(node, at)) {
                    Some(resume) => Popped::Defer { node, id, resume },
                    None => Popped::Stale,
                }
            }
            // A stale stamp means the timer was cancelled after this
            // event was scheduled.
            EventKind::Timer { node, id } => {
                if !timers.fire(id) || self.faulty_mask[node.index()] {
                    Popped::Stale
                } else {
                    Popped::Honest {
                        node,
                        call: Call::Timer(id),
                    }
                }
            }
            EventKind::Recover { node } => Popped::Honest {
                node,
                call: Call::Recover,
            },
            EventKind::AdvTimer { key } => Popped::AdvTimer(key),
        }
    }
}

/// Where a simulator puts what the world schedules, and where it keeps
/// the messages: the one seam between the two simulators. Every message
/// — a broadcast, an honest unicast, an adversary's `SendAs` — enters the
/// simulator's store through [`share`](Self::share), and the events
/// carry a [`Handle`](Self::Handle) on it: a `u32` arena index in
/// [`Sim::run`](crate::Sim::run), an `Arc` in the sharded executor,
/// whose deliveries cross lane threads.
pub(crate) trait Post<M> {
    /// A handle on one stored message.
    type Handle: Clone;

    /// Schedules `kind` at `at`, after everything already posted for the
    /// same instant.
    fn post(&mut self, at: Time, kind: EventKind<Self::Handle>);

    /// Stores one message for `fanout` deliveries, each of which takes a
    /// `clone` of the returned handle.
    fn share(&mut self, msg: M, fanout: usize) -> Self::Handle;

    /// A further handle on `msg`, for a flood duplicate. The default
    /// suits a refcounted handle.
    fn copy_payload(&mut self, msg: &Self::Handle) -> Self::Handle {
        msg.clone()
    }

    /// Releases a handle that will not reach a handler.
    fn drop_payload(&mut self, msg: Self::Handle) {
        drop(msg);
    }

    /// Reads `msg` for a faulty recipient, and whether its claims still
    /// need learning: every delivery of one message (a broadcast's
    /// fan-out, a flood's copies) carries the same claims, so only its
    /// first (earliest) faulty delivery can add knowledge.
    fn view_payload<'a>(&'a mut self, msg: &'a Self::Handle) -> (&'a M, bool);
}

/// The globally ordered state of one run (see the [module docs](self)).
pub(crate) struct World<M> {
    pub(crate) env: Arc<Env>,
    pub(crate) faulty: BTreeSet<NodeId>,
    pub(crate) honest: Vec<NodeId>,
    pub(crate) link: LinkConfig,
    pub(crate) delay_model: DelayModel,
    pub(crate) adv_signer: RestrictedSigner,
    pub(crate) knowledge: KnowledgeTracker,
    pub(crate) adversary: Box<dyn Adversary<M>>,
    /// Sampled once from [`Adversary::is_passive`]; `true` skips the
    /// adversary callbacks, and the knowledge bookkeeping only they could
    /// observe, on every message. Without a chaos timeline it also lets
    /// [`Sim::run`](crate::Sim::run) count deliveries to faulty nodes
    /// instead of queueing them (`engine::Tally`); the sharded executor
    /// queues them.
    pub(crate) adversary_passive: bool,
    /// Pooled adversary effect buffer: one allocation per run, not one
    /// per callback.
    pub(crate) adv_effects: Vec<AdvEffect<M>>,
    pub(crate) rng: SmallRng,
    pub(crate) trace: Trace,
    /// Continuous pulse/violation observer, called in event order.
    pub(crate) observer: Option<Arc<dyn RunObserver>>,
    pub(crate) max_pulses: Option<u64>,
    pub(crate) max_events: u64,
    /// Set when a pulse lands; gates the completion scan.
    pub(crate) pulse_recorded: bool,
    pub(crate) now: Time,
}

impl<M: Clone + CarriesSignatures> World<M> {
    /// Moves `now` to a popped event and counts it, and its message if it
    /// was a delivery. Returns false once the event cap trips, which is
    /// recorded as a violation.
    #[inline]
    pub(crate) fn begin_event(&mut self, at: Time, delivery: bool) -> bool {
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.trace.events_processed += 1;
        if self.trace.events_processed > self.max_events {
            self.record_violation(None, "event cap exceeded".to_owned());
            return false;
        }
        self.trace.messages_delivered += u64::from(delivery);
        true
    }

    /// Applies a popped event that runs no honest handler; the simulator
    /// runs [`Popped::Honest`] itself.
    pub(crate) fn settle<P: Post<M>>(&mut self, post: &mut P, popped: Popped<P::Handle>) {
        match popped {
            Popped::Honest { .. } => unreachable!("the simulator runs honest handlers"),
            Popped::ChaosDrop(msg) => {
                self.trace.chaos_drops += 1;
                post.drop_payload(msg);
            }
            Popped::Faulty { from, to, msg } => {
                if !self.adversary_passive {
                    let (seen, learn) = post.view_payload(&msg);
                    if learn {
                        self.knowledge.learn_all(seen, self.now);
                    }
                    self.call_adversary(|adv, api| adv.on_deliver(to, from, seen, api));
                    self.apply_adv_effects(post);
                }
                post.drop_payload(msg);
            }
            Popped::Defer { node, id, resume } => post.post(resume, EventKind::Timer { node, id }),
            Popped::Stale => {}
            Popped::AdvTimer(key) => self.with_adversary(post, |adv, api| adv.on_timer(key, api)),
        }
    }

    /// Applies one effect of node `v`'s handler. Timer cancellations touch
    /// only the node's own slab, so the handler's caller applies those.
    pub(crate) fn apply_effect<P: Post<M>>(&mut self, post: &mut P, v: NodeId, effect: Effect<M>) {
        match effect {
            Effect::Send { to, msg } => {
                let msg = post.share(msg, 1);
                self.schedule_honest_send(post, v, to, msg);
            }
            Effect::Broadcast { msg } => {
                let msg = post.share(msg, self.env.n);
                for to in NodeId::all(self.env.n) {
                    self.schedule_honest_send(post, v, to, msg.clone());
                }
            }
            Effect::SetTimer { id, at } => {
                let at = self.env.fire_time(v, self.now, at);
                post.post(at, EventKind::Timer { node: v, id });
            }
            Effect::CancelTimer { .. } => unreachable!("cancellations stay with the node's slab"),
            Effect::Pulse { index } => self.record_pulse(v, index),
            Effect::Violation(text) => self.record_violation(Some(v), text),
        }
    }

    /// Schedules one [`EventKind::Recover`] per recovery of an honest node
    /// in the chaos timeline, before any other event exists: the events get
    /// the lowest sequence numbers, so a recovery hook always runs before
    /// the node's timers deferred to the same instant.
    pub(crate) fn schedule_recoveries<P: Post<M>>(&self, post: &mut P) {
        let Some(chaos) = self.env.chaos.as_deref() else {
            return;
        };
        for (at, node, down) in chaos.crash_transitions() {
            if !down && !self.env.faulty_mask[node] {
                post.post(
                    at,
                    EventKind::Recover {
                        node: NodeId::new(node),
                    },
                );
            }
        }
    }

    fn link_bounds(&self, from: NodeId, to: NodeId) -> (Dur, Dur) {
        let mask = &self.env.faulty_mask;
        self.link
            .bounds_masked(mask[from.index()], mask[to.index()])
    }

    fn cut(&self, from: NodeId, to: NodeId) -> bool {
        self.env
            .chaos
            .as_deref()
            .is_some_and(|c| c.cut(from, to, self.now))
    }

    /// Schedules an honest send. The chaos hooks run in a fixed order,
    /// because the order fixes the RNG stream:
    ///   1. link cut — the message is lost, with no delay draw and no
    ///      adversary callback (nothing entered the network);
    ///   2. delay storm — the delay is the link maximum, with no draw;
    ///   3. flood — duplicates are posted before the original.
    pub(crate) fn schedule_honest_send<P: Post<M>>(
        &mut self,
        post: &mut P,
        from: NodeId,
        to: NodeId,
        msg: P::Handle,
    ) {
        if self.cut(from, to) {
            self.trace.chaos_drops += 1;
            post.drop_payload(msg);
            return;
        }
        let bounds = self.link_bounds(from, to);
        let storming = self
            .env
            .chaos
            .as_deref()
            .is_some_and(|c| c.storming(self.now));
        let delay = if storming {
            bounds.1
        } else if self.delay_model == DelayModel::AdversaryChoice {
            match self.adversary.pick_delay(from, to, bounds) {
                Some(d) => {
                    assert!(
                        d >= bounds.0 && d <= bounds.1,
                        "adversary chose delay {d} outside bounds ({}, {})",
                        bounds.0,
                        bounds.1
                    );
                    d
                }
                None => DelayModel::Random.draw(from, to, bounds, &mut self.rng),
            }
        } else {
            self.delay_model.draw(from, to, bounds, &mut self.rng)
        };
        self.with_adversary(post, |adv, api| adv.on_honest_send(from, to, api));
        if let Some(spec) = self.env.chaos.as_deref().and_then(|c| c.flood(self.now)) {
            for _ in 0..spec.copies {
                let copy = post.copy_payload(&msg);
                let copy_delay = if spec.rush {
                    bounds.0
                } else {
                    DelayModel::Random.draw(from, to, bounds, &mut self.rng)
                };
                self.trace.chaos_duplicates += 1;
                post.post(
                    self.now + copy_delay,
                    EventKind::Deliver {
                        from,
                        to,
                        msg: copy,
                    },
                );
            }
        }
        post.post(self.now + delay, EventKind::Deliver { from, to, msg });
    }

    /// Runs an adversary callback, then applies its effects.
    pub(crate) fn with_adversary<P: Post<M>, F>(&mut self, post: &mut P, f: F)
    where
        F: FnOnce(&mut dyn Adversary<M>, &mut AdversaryApi<'_, M>),
    {
        // A passive adversary's callbacks are contractually no-ops; skip
        // the api setup (paid per message otherwise).
        if self.adversary_passive {
            return;
        }
        self.call_adversary(f);
        self.apply_adv_effects(post);
    }

    /// Runs an adversary callback, leaving its effects in the pooled
    /// buffer.
    fn call_adversary<F>(&mut self, f: F)
    where
        F: FnOnce(&mut dyn Adversary<M>, &mut AdversaryApi<'_, M>),
    {
        debug_assert!(
            self.adv_effects.is_empty(),
            "pooled adversary buffer not drained"
        );
        let mut api = AdversaryApi {
            now: self.now,
            n: self.env.n,
            corrupted: &self.faulty,
            signer: &self.adv_signer,
            verifier: &*self.env.verifier,
            clocks: &self.env.clocks,
            knowledge: &self.knowledge,
            effects: &mut self.adv_effects,
        };
        f(&mut *self.adversary, &mut api);
    }

    /// Applies the adversary's buffered effects in order.
    fn apply_adv_effects<P: Post<M>>(&mut self, post: &mut P) {
        let mut effects = std::mem::take(&mut self.adv_effects);
        for effect in effects.drain(..) {
            match effect {
                AdvEffect::SendAs {
                    from,
                    to,
                    msg,
                    delay,
                } => {
                    assert!(
                        self.faulty.contains(&from),
                        "adversary impersonated honest node {from}"
                    );
                    // A cut link fails adversarial traffic too — the
                    // network is down, not the sender. Checked before
                    // authorization: a message that never enters the
                    // network is not a forgery attempt.
                    if self.cut(from, to) {
                        self.trace.chaos_drops += 1;
                        continue;
                    }
                    if let Err(e) = self.knowledge.authorize(&msg, self.now) {
                        self.trace.forgeries_blocked += 1;
                        self.record_violation(None, format!("{BLOCKED_FORGERY_PREFIX}: {e}"));
                        continue;
                    }
                    let bounds = self.link_bounds(from, to);
                    let delay = match delay {
                        Some(d) => {
                            assert!(
                                d >= bounds.0 && d <= bounds.1,
                                "adversarial delay {d} outside bounds ({}, {})",
                                bounds.0,
                                bounds.1
                            );
                            d
                        }
                        None => self.delay_model.draw(from, to, bounds, &mut self.rng),
                    };
                    let msg = post.share(msg, 1);
                    post.post(self.now + delay, EventKind::Deliver { from, to, msg });
                }
                AdvEffect::SetTimer { at, key } => {
                    post.post(at.max(self.now), EventKind::AdvTimer { key });
                }
            }
        }
        self.adv_effects = effects;
    }

    /// Records node `v`'s pulse `index` now, and shows it to the observer
    /// with any out-of-order violation it raised.
    fn record_pulse(&mut self, v: NodeId, index: u64) {
        let before = self.trace.violations.len();
        let jump_ok = self
            .env
            .chaos
            .as_deref()
            .is_some_and(|c| c.was_ever_down(v));
        self.trace.record_pulse(v, index, self.now, jump_ok);
        if let Some(obs) = &self.observer {
            for text in &self.trace.violations[before..] {
                obs.on_violation(Some(v), text, self.now);
            }
            obs.on_pulse(v, index, self.now);
        }
        self.pulse_recorded = true;
    }

    /// Records a violation now; one reported by a node is prefixed with
    /// its id.
    fn record_violation(&mut self, node: Option<NodeId>, text: String) {
        let text = match node {
            Some(v) => format!("{v}: {text}"),
            None => text,
        };
        if let Some(obs) = &self.observer {
            obs.on_violation(node, &text, self.now);
        }
        self.trace.violations.push(text);
    }

    /// Whether every honest node has emitted `max_pulses` pulses. Only a
    /// recorded pulse can change the answer, so the O(honest) scan runs
    /// only after one.
    #[inline]
    pub(crate) fn done_by_pulses(&mut self) -> bool {
        if !self.pulse_recorded {
            return false;
        }
        self.pulse_recorded = false;
        self.max_pulses.is_some_and(|k| {
            self.honest
                .iter()
                .all(|v| self.trace.pulses[v.index()].len() as u64 >= k)
        })
    }
}
