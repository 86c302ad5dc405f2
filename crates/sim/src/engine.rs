use std::collections::BTreeSet;
use std::sync::Arc;

use crusader_crypto::{KeyRing, KnowledgeTracker, NodeId, RestrictedSigner, Signer, Verifier};
use crusader_time::drift::DriftModel;
use crusader_time::{Dur, HardwareClock, LocalTime, Time};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::adversary::{AdvEffect, Adversary, AdversaryApi};
use crate::automaton::{Automaton, Context};
use crate::chaos::{ChaosTimeline, RunObserver};
use crate::event::{EventKind, EventQueue, Payload, TimerId, TimerSlab};
use crate::network::{DelayModel, LinkConfig};
use crate::trace::Trace;

/// Hard limits for a run.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RunLimits {
    pub(crate) horizon: Time,
    pub(crate) max_pulses: Option<u64>,
    pub(crate) max_events: u64,
}

/// Configures and constructs a [`Sim`].
///
/// # Example
///
/// ```no_run
/// use crusader_sim::{SimBuilder, SilentAdversary};
/// use crusader_time::Dur;
///
/// let builder = SimBuilder::new(4)
///     .faulty([1])
///     .link(Dur::from_millis(1.0), Dur::from_micros(100.0))
///     .seed(7);
/// # let _ = builder;
/// ```
#[derive(Clone, Debug)]
pub struct SimBuilder {
    n: usize,
    faulty: BTreeSet<NodeId>,
    link: LinkConfig,
    delay_model: DelayModel,
    drift: DriftModel,
    theta: f64,
    max_offset: Dur,
    clocks: Option<Vec<HardwareClock>>,
    seed: u64,
    horizon: Time,
    max_pulses: Option<u64>,
    max_events: u64,
    chaos: Option<Arc<ChaosTimeline>>,
    observer: Option<Arc<dyn RunObserver>>,
}

impl SimBuilder {
    /// Starts configuring a simulation of `n` nodes.
    ///
    /// Defaults: no faulty nodes, `d = 1 ms`, `u = 100 µs`, `ũ = u`,
    /// random delays, perfect clocks (`θ = 1.01` for validation), horizon
    /// 120 s, event cap 50 M.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one node");
        SimBuilder {
            n,
            faulty: BTreeSet::new(),
            link: LinkConfig::new(Dur::from_millis(1.0), Dur::from_micros(100.0)),
            delay_model: DelayModel::Random,
            drift: DriftModel::Perfect,
            theta: 1.01,
            max_offset: Dur::ZERO,
            clocks: None,
            seed: 0,
            horizon: Time::from_secs(120.0),
            max_pulses: None,
            max_events: 50_000_000,
            chaos: None,
            observer: None,
        }
    }

    /// Marks nodes as faulty (controlled by the adversary).
    #[must_use]
    pub fn faulty(mut self, nodes: impl IntoIterator<Item = usize>) -> Self {
        self.faulty = nodes.into_iter().map(NodeId::new).collect();
        self
    }

    /// Sets `d` and `u` (with `ũ = u`).
    #[must_use]
    pub fn link(mut self, d: Dur, u: Dur) -> Self {
        self.link = LinkConfig::new(d, u);
        self
    }

    /// Sets the full link configuration, including `ũ`.
    #[must_use]
    pub fn link_config(mut self, link: LinkConfig) -> Self {
        self.link = link;
        self
    }

    /// Sets the delay policy for honest messages.
    #[must_use]
    pub fn delays(mut self, model: DelayModel) -> Self {
        self.delay_model = model;
        self
    }

    /// Generates hardware clocks from a drift model with rate bound
    /// `theta` and initial offsets in `[0, max_offset]`.
    #[must_use]
    pub fn drift(mut self, model: DriftModel, theta: f64, max_offset: Dur) -> Self {
        self.drift = model;
        self.theta = theta;
        self.max_offset = max_offset;
        self.clocks = None;
        self
    }

    /// Uses explicit hardware clocks (validated against `theta`).
    #[must_use]
    pub fn clocks(mut self, clocks: Vec<HardwareClock>, theta: f64) -> Self {
        assert_eq!(clocks.len(), self.n, "need one clock per node");
        self.theta = theta;
        self.clocks = Some(clocks);
        self
    }

    /// Sets the RNG seed (delays, drift generation, tie-free determinism).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the real-time horizon after which the run stops.
    #[must_use]
    pub fn horizon(mut self, horizon: Time) -> Self {
        self.horizon = horizon;
        self
    }

    /// Stops once every honest node has emitted this many pulses.
    #[must_use]
    pub fn max_pulses(mut self, pulses: u64) -> Self {
        self.max_pulses = Some(pulses);
        self
    }

    /// Overrides the event cap (a runaway-protocol backstop).
    #[must_use]
    pub fn max_events(mut self, cap: u64) -> Self {
        self.max_events = cap;
        self
    }

    /// Installs a chaos fault-injection timeline (see
    /// [`ChaosTimeline`]). Both executors consult it at dispatch and
    /// send-scheduling time; injection is deterministic under the
    /// sharded `(at, seq)` merge because every timeline query is a pure
    /// function of simulated time.
    ///
    /// # Panics
    ///
    /// Panics (at [`build`](Self::build)) if the timeline was built for
    /// a different `n`.
    #[must_use]
    pub fn chaos(mut self, timeline: Arc<ChaosTimeline>) -> Self {
        self.chaos = Some(timeline);
        self
    }

    /// Installs a continuous run observer, called in event order at
    /// every pulse and violation (see [`RunObserver`]).
    #[must_use]
    pub fn observer(mut self, observer: Arc<dyn RunObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Builds the simulation.
    ///
    /// `make_node` constructs the automaton for each honest node;
    /// `adversary` controls all faulty nodes and the delays (under
    /// [`DelayModel::AdversaryChoice`]).
    ///
    /// # Panics
    ///
    /// Panics if a provided clock violates the rate bounds, or a faulty id
    /// is out of range.
    pub fn build<A, F>(self, mut make_node: F, adversary: Box<dyn Adversary<A::Msg>>) -> Sim<A>
    where
        A: Automaton,
        F: FnMut(NodeId) -> A,
    {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xc_1a55_1ca1_u64);
        for f in &self.faulty {
            assert!(f.index() < self.n, "faulty node {f} out of range");
        }
        let clocks = match self.clocks {
            Some(clocks) => clocks,
            None => self
                .drift
                .generate(self.n, self.theta, self.max_offset, &mut rng),
        };
        assert_eq!(clocks.len(), self.n, "need one clock per node");
        for (i, c) in clocks.iter().enumerate() {
            c.validate_rates(self.theta)
                .unwrap_or_else(|e| panic!("clock of node {i}: {e}"));
        }
        let ring = KeyRing::symbolic(self.n, self.seed);
        let signers: Vec<Arc<dyn Signer>> =
            NodeId::all(self.n).map(|v| ring.signer(v)).collect();
        let verifier = ring.verifier();
        let adv_signer = ring.restricted_signer(self.faulty.clone());
        let nodes: Vec<Option<A>> = NodeId::all(self.n)
            .map(|v| {
                if self.faulty.contains(&v) {
                    None
                } else {
                    Some(make_node(v))
                }
            })
            .collect();
        let faulty_mask: Vec<bool> = NodeId::all(self.n)
            .map(|v| self.faulty.contains(&v))
            .collect();
        let adversary_passive = adversary.is_passive();
        if let Some(chaos) = &self.chaos {
            assert_eq!(
                chaos.n(),
                self.n,
                "chaos timeline built for a different system size"
            );
        }
        // An empty timeline injects nothing; drop it so the per-event
        // hot paths keep their zero-cost `None` fast path.
        let chaos = self.chaos.filter(|c| !c.is_empty());
        Sim {
            n: self.n,
            faulty: self.faulty.clone(),
            faulty_mask,
            adversary_passive,
            honest: NodeId::all(self.n)
                .filter(|v| !self.faulty.contains(v))
                .collect(),
            link: self.link,
            delay_model: self.delay_model,
            clocks,
            signers,
            verifier,
            adv_signer,
            knowledge: KnowledgeTracker::new(self.faulty),
            nodes,
            adversary,
            queue: EventQueue::with_delay_hint(self.link.d),
            broadcasts: BroadcastArena::new(),
            now: Time::ZERO,
            timers: TimerSlab::new(),
            node_effects: Vec::new(),
            adv_effects: Vec::new(),
            pulse_recorded: false,
            trace: Trace::new(self.n),
            limits: RunLimits {
                horizon: self.horizon,
                max_pulses: self.max_pulses,
                max_events: self.max_events,
            },
            chaos,
            observer: self.observer,
            rng,
        }
    }
}

/// One pending broadcast in the single-lane engine's arena.
#[derive(Debug)]
struct BroadcastSlot<M> {
    msg: M,
    /// Deliveries still outstanding; the slot frees when it reaches zero.
    remaining: u32,
    /// Whether a faulty delivery has already walked this payload's claims
    /// (mirrors `SharedPayload::adversary_learned`, without the atomic).
    learned: bool,
}

/// Single-threaded broadcast storage for [`Sim::run`].
///
/// A broadcast schedules `n` deliveries of one payload. Routing them
/// through [`Payload::Shared`]'s `Arc` costs two atomic refcount
/// operations per delivery (clone at push, drop at delivery) — pure waste
/// on the single-lane engine's one thread, and measurably so: at `n = 16`
/// the CPS scenario is ~10 000 broadcast deliveries. The engine instead
/// parks the payload here under a plain integer refcount and ships
/// [`Payload::Local`] slot indices through the event queue. The sharded
/// executor keeps the `Arc` path: its payloads genuinely cross lane
/// threads.
#[derive(Debug)]
pub(crate) struct BroadcastArena<M> {
    slots: Vec<Option<BroadcastSlot<M>>>,
    free: Vec<u32>,
}

impl<M> BroadcastArena<M> {
    fn new() -> Self {
        BroadcastArena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Parks `msg` for `fanout` deliveries and returns its slot index.
    fn insert(&mut self, msg: M, fanout: u32) -> u32 {
        debug_assert!(fanout > 0, "broadcast to nobody");
        let slot = BroadcastSlot {
            msg,
            remaining: fanout,
            learned: false,
        };
        match self.free.pop() {
            Some(id) => {
                debug_assert!(self.slots[id as usize].is_none(), "free slot occupied");
                self.slots[id as usize] = Some(slot);
                id
            }
            None => {
                let id = u32::try_from(self.slots.len())
                    .expect("more than u32::MAX simultaneous broadcasts");
                self.slots.push(Some(slot));
                id
            }
        }
    }

    /// Resolves one honest delivery: moves the payload out on the last
    /// delivery, clones it otherwise.
    fn take_or_clone(&mut self, id: u32) -> M
    where
        M: Clone,
    {
        let slot = self.slots[id as usize]
            .as_mut()
            .expect("local payload pointing at empty broadcast slot");
        if slot.remaining > 1 {
            slot.remaining -= 1;
            slot.msg.clone()
        } else {
            let slot = self.slots[id as usize].take().expect("slot present");
            self.free.push(id);
            slot.msg
        }
    }

    /// Takes the whole slot out for a faulty delivery (the adversary
    /// needs `&M` while the engine is re-borrowed); pair with
    /// [`put_back`](Self::put_back).
    fn take_slot(&mut self, id: u32) -> BroadcastSlot<M> {
        self.slots[id as usize]
            .take()
            .expect("local payload pointing at empty broadcast slot")
    }

    /// Returns a slot taken by [`take_slot`](Self::take_slot), consuming
    /// one delivery.
    fn put_back(&mut self, id: u32, mut slot: BroadcastSlot<M>) {
        if slot.remaining > 1 {
            slot.remaining -= 1;
            self.slots[id as usize] = Some(slot);
        } else {
            self.free.push(id);
        }
    }

    /// Registers `extra` additional pending deliveries against a slot
    /// (chaos flood duplicates of an in-flight broadcast leg).
    fn add_refs(&mut self, id: u32, extra: u32) {
        let slot = self.slots[id as usize]
            .as_mut()
            .expect("local payload pointing at empty broadcast slot");
        slot.remaining += extra;
    }

    /// Releases one delivery without reading the payload (a faulty
    /// recipient under a passive adversary).
    fn release(&mut self, id: u32) {
        let slot = self.slots[id as usize]
            .as_mut()
            .expect("local payload pointing at empty broadcast slot");
        if slot.remaining > 1 {
            slot.remaining -= 1;
        } else {
            self.slots[id as usize] = None;
            self.free.push(id);
        }
    }
}

pub(crate) enum Effect<M> {
    Send { to: NodeId, msg: M },
    /// One payload for all `n` destinations; the engine wraps it in an
    /// `Arc` so the fan-out shares it instead of deep-cloning `n` times.
    Broadcast { msg: M },
    SetTimer { id: TimerId, at: LocalTime },
    CancelTimer { id: TimerId },
    Pulse { index: u64 },
    Violation(String),
}

/// A deterministic discrete-event simulation of one execution of the model.
///
/// Construct via [`SimBuilder`]; consume via [`Sim::run`].
pub struct Sim<A: Automaton> {
    pub(crate) n: usize,
    pub(crate) faulty: BTreeSet<NodeId>,
    /// `faulty` as a by-index bitmap: the per-message fault checks (link
    /// bounds, delivery routing) are one load instead of a tree probe.
    pub(crate) faulty_mask: Vec<bool>,
    /// Sampled once from [`Adversary::is_passive`]; `true` skips the
    /// adversary callbacks on every message.
    pub(crate) adversary_passive: bool,
    pub(crate) honest: Vec<NodeId>,
    pub(crate) link: LinkConfig,
    pub(crate) delay_model: DelayModel,
    pub(crate) clocks: Vec<HardwareClock>,
    pub(crate) signers: Vec<Arc<dyn Signer>>,
    pub(crate) verifier: Arc<dyn Verifier>,
    pub(crate) adv_signer: RestrictedSigner,
    pub(crate) knowledge: KnowledgeTracker,
    pub(crate) nodes: Vec<Option<A>>,
    pub(crate) adversary: Box<dyn Adversary<A::Msg>>,
    pub(crate) queue: EventQueue<A::Msg>,
    /// Non-atomic payload storage for in-flight broadcasts (see
    /// [`BroadcastArena`]). Single-lane runs only; the sharded executor
    /// takes ownership of the queue contents before any `Local` payload
    /// could exist.
    broadcasts: BroadcastArena<A::Msg>,
    pub(crate) now: Time,
    pub(crate) timers: TimerSlab,
    /// Pooled effect buffer, reused across every `with_node` call so the
    /// per-event `Vec` allocation happens once per run, not once per event.
    pub(crate) node_effects: Vec<Effect<A::Msg>>,
    /// Pooled adversary effect buffer (same rationale).
    pub(crate) adv_effects: Vec<AdvEffect<A::Msg>>,
    /// Set when an `Effect::Pulse` lands; gates the completion scan.
    pub(crate) pulse_recorded: bool,
    pub(crate) trace: Trace,
    pub(crate) limits: RunLimits,
    /// Fault-injection schedule; `None` (the common case) keeps the
    /// per-event checks to a single branch.
    pub(crate) chaos: Option<Arc<ChaosTimeline>>,
    /// Continuous pulse/violation observer (invariant checking).
    pub(crate) observer: Option<Arc<dyn RunObserver>>,
    pub(crate) rng: SmallRng,
}

impl<A: Automaton> Sim<A> {
    /// The honest node ids, in ascending order.
    #[must_use]
    pub fn honest(&self) -> &[NodeId] {
        &self.honest
    }

    /// The hardware clocks in use (indexable by node).
    #[must_use]
    pub fn clocks(&self) -> &[HardwareClock] {
        &self.clocks
    }

    /// Converts this simulation into the sharded executor with `lanes`
    /// per-node event lanes (see [`ShardedSim`](crate::ShardedSim)).
    ///
    /// The sharded executor produces the *same trace, bit for bit*, as
    /// [`Sim::run`] would — lanes advance in parallel only up to the
    /// conservative lookahead horizon `d − ũ`, and all globally ordered
    /// state (RNG, sequence numbers, the adversary, the knowledge tracker)
    /// is touched in a sequential reconcile that replays the single-lane
    /// order. Use it for large `n`, where one event loop serializes every
    /// delivery; the single-lane engine remains the reference
    /// implementation.
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    #[must_use]
    pub fn sharded(self, lanes: usize) -> crate::shard::ShardedSim<A> {
        crate::shard::ShardedSim::new(self, lanes)
    }

    /// Runs the simulation to completion and returns the trace.
    ///
    /// The run ends when the horizon is reached, every honest node has
    /// produced `max_pulses` pulses, the event queue drains, or the event
    /// cap trips (recorded as a violation).
    pub fn run(mut self) -> Trace {
        self.init();
        while let Some(event) = self.queue.pop() {
            if event.at > self.limits.horizon {
                break;
            }
            debug_assert!(event.at >= self.now, "time went backwards");
            self.now = event.at;
            self.trace.events_processed += 1;
            if self.trace.events_processed > self.limits.max_events {
                if let Some(obs) = &self.observer {
                    obs.on_violation(None, "event cap exceeded", self.now);
                }
                self.trace
                    .violations
                    .push("event cap exceeded".to_owned());
                break;
            }
            match event.kind {
                EventKind::Deliver { from, to, msg } => self.deliver(from, to, msg),
                EventKind::Timer { node, id } => {
                    // A crashed node runs no handlers: defer the timer —
                    // *without* firing the slab slot, so a later cancel
                    // still matches — to the recovery instant, or drop
                    // it outright if the node never comes back.
                    if let Some(chaos) = &self.chaos {
                        if chaos.down(node, self.now) {
                            if let Some(resume) = chaos.resume_at(node, self.now) {
                                self.queue.push(resume, EventKind::Timer { node, id });
                            }
                            continue;
                        }
                    }
                    // A stale stamp means the timer was cancelled after
                    // this event was scheduled; skip it.
                    if !self.timers.fire(id) {
                        continue;
                    }
                    self.dispatch_timer(node, id);
                }
                EventKind::AdvTimer { key } => self.dispatch_adv_timer(key),
                EventKind::Recover { node } => {
                    // One Recover event is scheduled per crash window at
                    // init; with overlapping/adjacent windows the node
                    // can still be down at this instant — the covering
                    // window's own Recover event handles the real
                    // resume, so this one is a no-op.
                    let still_down = self
                        .chaos
                        .as_deref()
                        .is_some_and(|c| c.down(node, self.now));
                    if !still_down {
                        self.with_node(node, |n, ctx| n.on_recover(ctx));
                    }
                }
            }
            // `done_by_pulses` can only change when a pulse was recorded,
            // so gate the O(honest) scan on that (it used to run per event).
            if self.pulse_recorded {
                self.pulse_recorded = false;
                if self.done_by_pulses() {
                    break;
                }
            }
        }
        self.trace.finished_at = self.now;
        self.trace.timer_slots_high_water = self.timers.high_water() as u64;
        self.trace.queue_spill_count = self.queue.spill_count();
        self.trace.queue_splice_count = self.queue.splice_count();
        self.trace
    }

    fn init(&mut self) {
        self.schedule_recoveries();
        for v in self.honest.clone() {
            self.with_node(v, |node, ctx| node.on_init(ctx));
        }
        self.with_adversary(|adv, api| adv.on_init(api));
    }

    /// Schedules one [`EventKind::Recover`] per honest crash window that
    /// ends within the run, *before any other event exists*. The sharded
    /// executor's init performs the identical pushes in the identical
    /// order, so the events get the same seqs in both engines (keeping
    /// sharded traces bit-identical) — and a seq lower than any timer
    /// later deferred to the same recovery instant, so the recovery hook
    /// always runs before the node's stale timers.
    fn schedule_recoveries(&mut self) {
        let Some(chaos) = self.chaos.clone() else {
            return;
        };
        for (at, node, down) in chaos.crash_transitions() {
            if down || self.faulty_mask[node] {
                continue;
            }
            self.queue.push(
                at,
                EventKind::Recover {
                    node: NodeId::new(node),
                },
            );
        }
    }

    fn deliver(&mut self, from: NodeId, to: NodeId, msg: Payload<A::Msg>) {
        self.trace.messages_delivered += 1;
        // A crashed recipient loses the delivery (the network delivered
        // it; nobody was listening).
        if let Some(chaos) = &self.chaos {
            if chaos.down(to, self.now) {
                self.trace.chaos_drops += 1;
                if let Payload::Local(id) = msg {
                    self.broadcasts.release(id);
                }
                return;
            }
        }
        if self.faulty_mask[to.index()] {
            // A passive adversary never receives an `AdversaryApi`, so the
            // knowledge tracker is unobservable and learning is skipped
            // wholesale. Otherwise the faulty path only ever reads the
            // message — a broadcast payload is delivered without any
            // clone — and only its first (earliest) faulty delivery can
            // add knowledge, so later copies skip the claim walk.
            if self.adversary_passive {
                if let Payload::Local(id) = msg {
                    self.broadcasts.release(id);
                }
            } else if let Payload::Local(id) = msg {
                // Lift the slot out so the adversary can borrow the
                // payload while the engine is re-borrowed mutably.
                let mut slot = self.broadcasts.take_slot(id);
                if !slot.learned {
                    slot.learned = true;
                    self.knowledge.learn_all(&slot.msg, self.now);
                }
                let msg = &slot.msg;
                self.with_adversary(|adv, api| adv.on_deliver(to, from, msg, api));
                self.broadcasts.put_back(id, slot);
            } else {
                if msg.needs_learning() {
                    self.knowledge.learn_all(msg.as_ref(), self.now);
                }
                let msg = msg.as_ref();
                self.with_adversary(|adv, api| adv.on_deliver(to, from, msg, api));
            }
        } else {
            let msg = match msg {
                Payload::Local(id) => self.broadcasts.take_or_clone(id),
                msg => msg.into_owned(),
            };
            self.with_node(to, |node, ctx| node.on_message(from, msg, ctx));
        }
    }

    fn dispatch_timer(&mut self, node: NodeId, id: TimerId) {
        if self.faulty_mask[node.index()] {
            return;
        }
        self.with_node(node, |n, ctx| n.on_timer(id, ctx));
    }

    fn dispatch_adv_timer(&mut self, key: u64) {
        self.with_adversary(|adv, api| adv.on_timer(key, api));
    }

    /// Runs `f` against node `v` with the pooled effect buffer, then
    /// applies the effects.
    fn with_node<F>(&mut self, v: NodeId, f: F)
    where
        F: FnOnce(&mut A, &mut dyn Context<A::Msg>),
    {
        // Take the pooled buffer; its capacity survives across events.
        let mut effects = std::mem::take(&mut self.node_effects);
        debug_assert!(effects.is_empty(), "pooled node buffer not drained");
        let now_local = self.clocks[v.index()].read(self.now);
        {
            // Disjoint field borrows: the node is mutated in place while
            // the context borrows the engine's other fields (no
            // take-and-put-back memcpy of the automaton per event).
            let node = self.nodes[v.index()].as_mut().expect("honest node present");
            let mut ctx = NodeCtx {
                me: v,
                n: self.n,
                now_local,
                signer: &*self.signers[v.index()],
                verifier: &*self.verifier,
                timers: &mut self.timers,
                effects: &mut effects,
            };
            f(node, &mut ctx);
        }
        self.apply_node_effects(v, now_local, &mut effects);
        effects.clear();
        self.node_effects = effects;
    }

    fn apply_node_effects(
        &mut self,
        v: NodeId,
        now_local: LocalTime,
        effects: &mut Vec<Effect<A::Msg>>,
    ) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    self.schedule_honest_send(v, to, Payload::Owned(msg));
                }
                Effect::Broadcast { msg } => {
                    // One arena slot for all `n` deliveries: plain-integer
                    // refcounting instead of `n` atomic `Arc` clone/drop
                    // pairs (see [`BroadcastArena`]).
                    let id = self.broadcasts.insert(msg, u32::try_from(self.n).expect("n fits u32"));
                    for to in NodeId::all(self.n) {
                        self.schedule_honest_send(v, to, Payload::Local(id));
                    }
                }
                Effect::SetTimer { id, at } => {
                    // `now_local` is the handler's clock reading at the
                    // same real instant, so the in-the-past clamp needs no
                    // second clock evaluation.
                    let fire_at = if at <= now_local {
                        self.now
                    } else {
                        self.clocks[v.index()].when(at)
                    };
                    self.queue
                        .push(fire_at, EventKind::Timer { node: v, id });
                }
                Effect::CancelTimer { id } => {
                    self.timers.cancel(id);
                }
                Effect::Pulse { index } => {
                    let before = self.trace.violations.len();
                    let jump_ok = self.chaos.as_deref().is_some_and(|c| c.was_ever_down(v));
                    self.trace.record_pulse(v, index, self.now, jump_ok);
                    if let Some(obs) = &self.observer {
                        // `record_pulse` may itself flag an out-of-order
                        // pulse; surface that to the observer too.
                        for text in &self.trace.violations[before..] {
                            obs.on_violation(Some(v), text, self.now);
                        }
                        obs.on_pulse(v, index, self.now);
                    }
                    self.pulse_recorded = true;
                }
                Effect::Violation(text) => {
                    let text = format!("{v}: {text}");
                    if let Some(obs) = &self.observer {
                        obs.on_violation(Some(v), &text, self.now);
                    }
                    self.trace.violations.push(text);
                }
            }
        }
    }

    /// [`LinkConfig::bounds`] against the bitmap instead of the `BTreeSet`.
    fn link_bounds(&self, from: NodeId, to: NodeId) -> (Dur, Dur) {
        self.link.bounds_masked(
            self.faulty_mask[from.index()],
            self.faulty_mask[to.index()],
        )
    }

    fn schedule_honest_send(&mut self, from: NodeId, to: NodeId, msg: Payload<A::Msg>) {
        // Chaos hooks, in a fixed order mirrored exactly by the sharded
        // executor's reconcile (any divergence here would desynchronize
        // the shared RNG stream):
        //   1. link cut — message lost, no delay draw, no adversary
        //      callback (the network failed, nothing entered it);
        //   2. delay storm — pin to the max legal delay, skipping the
        //      draw;
        //   3. flood — after the original push, inject duplicates.
        if let Some(chaos) = self.chaos.as_deref() {
            if chaos.cut(from, to, self.now) {
                self.trace.chaos_drops += 1;
                if let Payload::Local(id) = msg {
                    self.broadcasts.release(id);
                }
                return;
            }
        }
        let bounds = self.link_bounds(from, to);
        let storming = self
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
        self.with_adversary(|adv, api| adv.on_honest_send(from, to, api));
        let flood = self.chaos.as_deref().and_then(|c| c.flood(self.now));
        match flood {
            None => {
                self.queue
                    .push(self.now + delay, EventKind::Deliver { from, to, msg });
            }
            Some(spec) => {
                // Duplicate the payload before the original is consumed;
                // `Local` copies bump the arena refcount so the slot
                // survives the extra deliveries.
                if let Payload::Local(id) = msg {
                    self.broadcasts.add_refs(id, spec.copies);
                }
                for _ in 0..spec.copies {
                    let copy = self.duplicate_payload(&msg);
                    let copy_delay = if spec.rush {
                        bounds.0
                    } else {
                        DelayModel::Random.draw(from, to, bounds, &mut self.rng)
                    };
                    self.trace.chaos_duplicates += 1;
                    self.queue.push(
                        self.now + copy_delay,
                        EventKind::Deliver {
                            from,
                            to,
                            msg: copy,
                        },
                    );
                }
                self.queue
                    .push(self.now + delay, EventKind::Deliver { from, to, msg });
            }
        }
    }

    /// Clones a payload for a chaos flood copy (`Local` slots must have
    /// had their refcount bumped by the caller).
    fn duplicate_payload(&self, msg: &Payload<A::Msg>) -> Payload<A::Msg> {
        match msg {
            Payload::Owned(m) => Payload::Owned(m.clone()),
            Payload::Shared(arc) => Payload::Shared(Arc::clone(arc)),
            Payload::Local(id) => Payload::Local(*id),
        }
    }

    fn with_adversary<F>(&mut self, f: F)
    where
        F: FnOnce(&mut dyn Adversary<A::Msg>, &mut AdversaryApi<'_, A::Msg>),
    {
        // A passive adversary's callbacks are contractually no-ops; skip
        // the api setup (paid per message otherwise).
        if self.adversary_passive {
            return;
        }
        // Take the pooled buffer; `with_adversary` never re-enters itself
        // (applying adversary effects only schedules queue events), so the
        // take/restore pair always sees its own buffer. If that invariant
        // ever broke, `mem::take` would merely hand the inner call a fresh
        // empty `Vec` — slower, never incorrect.
        let mut effects = std::mem::take(&mut self.adv_effects);
        debug_assert!(effects.is_empty(), "pooled adversary buffer not drained");
        {
            let mut api = AdversaryApi {
                now: self.now,
                n: self.n,
                corrupted: &self.faulty,
                signer: &self.adv_signer,
                verifier: &*self.verifier,
                clocks: &self.clocks,
                knowledge: &self.knowledge,
                effects: &mut effects,
            };
            f(&mut *self.adversary, &mut api);
        }
        self.apply_adv_effects(&mut effects);
        effects.clear();
        self.adv_effects = effects;
    }

    fn apply_adv_effects(&mut self, effects: &mut Vec<AdvEffect<A::Msg>>) {
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
                    if let Some(chaos) = self.chaos.as_deref() {
                        if chaos.cut(from, to, self.now) {
                            self.trace.chaos_drops += 1;
                            continue;
                        }
                    }
                    if let Err(e) = self.knowledge.authorize(&msg, self.now) {
                        self.trace.forgeries_blocked += 1;
                        let text = format!("blocked forgery: {e}");
                        if let Some(obs) = &self.observer {
                            obs.on_violation(None, &text, self.now);
                        }
                        self.trace.violations.push(text);
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
                    self.queue.push(
                        self.now + delay,
                        EventKind::Deliver {
                            from,
                            to,
                            msg: Payload::Owned(msg),
                        },
                    );
                }
                AdvEffect::SetTimer { at, key } => {
                    let at = at.max(self.now);
                    self.queue.push(at, EventKind::AdvTimer { key });
                }
            }
        }
    }

    fn done_by_pulses(&self) -> bool {
        match self.limits.max_pulses {
            None => false,
            Some(k) => self
                .honest
                .iter()
                .all(|v| self.trace.pulses[v.index()].len() as u64 >= k),
        }
    }
}

/// Node-side context implementation (separate from `SimCtx` so the
/// `broadcast` clone has access to `M: Clone`).
pub(crate) struct NodeCtx<'a, M> {
    pub(crate) me: NodeId,
    pub(crate) n: usize,
    pub(crate) now_local: LocalTime,
    pub(crate) signer: &'a dyn Signer,
    pub(crate) verifier: &'a dyn Verifier,
    pub(crate) timers: &'a mut TimerSlab,
    pub(crate) effects: &'a mut Vec<Effect<M>>,
}

impl<'a, M: Clone> Context<M> for NodeCtx<'a, M> {
    fn me(&self) -> NodeId {
        self.me
    }

    fn n(&self) -> usize {
        self.n
    }

    fn local_time(&self) -> LocalTime {
        self.now_local
    }

    fn send(&mut self, to: NodeId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    fn broadcast(&mut self, msg: M) {
        // A single effect; the engine fans it out behind one shared `Arc`
        // instead of `n` deep clones.
        self.effects.push(Effect::Broadcast { msg });
    }

    fn set_timer_at(&mut self, at: LocalTime) -> TimerId {
        let id = self.timers.arm();
        self.effects.push(Effect::SetTimer { id, at });
        id
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        self.effects.push(Effect::CancelTimer { id: timer });
    }

    fn pulse(&mut self, index: u64) {
        self.effects.push(Effect::Pulse { index });
    }

    fn signer(&self) -> &dyn Signer {
        self.signer
    }

    fn verifier(&self) -> &dyn Verifier {
        self.verifier
    }

    fn mark_violation(&mut self, description: String) {
        self.effects.push(Effect::Violation(description));
    }
}
