use std::collections::BTreeSet;
use std::sync::Arc;

use crusader_crypto::{CarriesSignatures, KeyRing, KnowledgeTracker, NodeId};
use crusader_time::drift::DriftModel;
use crusader_time::{Dur, HardwareClock, Time};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::adversary::Adversary;
use crate::automaton::{Automaton, Call, Effect};
use crate::chaos::{ChaosTimeline, RunObserver};
use crate::event::{EventKey, EventKind, EventQueue, TimerSlab};
use crate::network::{DelayModel, LinkConfig};
use crate::trace::Trace;
use crate::world::{Env, Popped, World};

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
    /// [`ChaosTimeline`]). The engine consults it at dispatch and
    /// send-scheduling time; every timeline query is a pure function of
    /// simulated time, so injection is deterministic.
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
        let nodes: Vec<Option<A>> = NodeId::all(self.n)
            .map(|v| (!self.faulty.contains(&v)).then(|| make_node(v)))
            .collect();
        if let Some(chaos) = &self.chaos {
            assert_eq!(
                chaos.n(),
                self.n,
                "chaos timeline built for a different system size"
            );
        }
        let env = Env {
            n: self.n,
            clocks,
            signers: NodeId::all(self.n).map(|v| ring.signer(v)).collect(),
            verifier: ring.verifier(),
            faulty_mask: NodeId::all(self.n)
                .map(|v| self.faulty.contains(&v))
                .collect(),
            horizon: self.horizon,
            // An empty timeline injects nothing; drop it so the per-event
            // hot paths keep their zero-cost `None` fast path.
            chaos: self.chaos.filter(|c| !c.is_empty()),
        };
        let passive = adversary.is_passive();
        let unobserved = if passive && env.chaos.is_none() {
            env.faulty_mask.clone()
        } else {
            Vec::new()
        };
        Sim {
            world: World {
                env,
                honest: NodeId::all(self.n)
                    .filter(|v| !self.faulty.contains(v))
                    .collect(),
                link: self.link,
                delay_model: self.delay_model,
                adv_signer: ring.restricted_signer(self.faulty.clone()),
                knowledge: KnowledgeTracker::new(self.faulty.clone()),
                faulty: self.faulty,
                adversary_passive: passive,
                adversary,
                adv_effects: Vec::new(),
                rng,
                trace: Trace::new(self.n),
                observer: self.observer,
                max_pulses: self.max_pulses,
                max_events: self.max_events,
                pulse_recorded: false,
                now: Time::ZERO,
            },
            nodes,
            timers: TimerSlab::new(),
            pending: Pending {
                queue: EventQueue::with_delay_hint(self.link.d),
                messages: MessageArena::new(),
                tally: Tally::new(unobserved),
            },
            node_effects: Vec::new(),
        }
    }
}

/// One stored message in the engine's arena.
#[derive(Debug)]
struct MessageSlot<M> {
    msg: M,
    /// Handles still outstanding; the slot frees when it reaches zero.
    remaining: u32,
    /// Whether a faulty delivery has already walked this message's
    /// claims: every delivery of one message carries the same claims, so
    /// only the first (earliest) can add knowledge.
    learned: bool,
}

/// Single-threaded message storage for [`Sim::run`]: every message in
/// flight, unicast or broadcast, lives here, and the event queue carries
/// its `u32` slot index.
///
/// A broadcast schedules `n` deliveries of one message under a plain
/// integer refcount, so the engine pays no atomic operations per
/// delivery; and since an event holds an index instead of the message, a
/// queue entry is 32 bytes whatever the message type.
#[derive(Debug)]
struct MessageArena<M> {
    slots: Vec<Option<MessageSlot<M>>>,
    free: Vec<u32>,
}

impl<M: Clone> MessageArena<M> {
    fn new() -> Self {
        MessageArena {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn slot(&mut self, id: u32) -> &mut MessageSlot<M> {
        self.slots[id as usize]
            .as_mut()
            .expect("message handle pointing at an empty arena slot")
    }

    /// Stores `msg` for `fanout` handles; every copy of the returned
    /// handle is one of them.
    fn insert(&mut self, msg: M, fanout: usize) -> u32 {
        let slot = MessageSlot {
            msg,
            remaining: u32::try_from(fanout).expect("n fits u32"),
            learned: false,
        };
        match self.free.pop() {
            Some(id) => {
                debug_assert!(self.slots[id as usize].is_none(), "free slot occupied");
                self.slots[id as usize] = Some(slot);
                id
            }
            None => {
                let id =
                    u32::try_from(self.slots.len()).expect("more than u32::MAX messages in flight");
                self.slots.push(Some(slot));
                id
            }
        }
    }

    /// Resolves one honest delivery: moves the message out of its slot on
    /// the last handle, clones it otherwise.
    fn take(&mut self, id: u32) -> M {
        let slot = self.slot(id);
        if slot.remaining > 1 {
            slot.remaining -= 1;
            slot.msg.clone()
        } else {
            self.free.push(id);
            self.slots[id as usize].take().expect("slot present").msg
        }
    }

    /// Releases one handle without reading the message.
    fn release(&mut self, id: u32) {
        let slot = self.slot(id);
        if slot.remaining > 1 {
            slot.remaining -= 1;
        } else {
            self.slots[id as usize] = None;
            self.free.push(id);
        }
    }

    /// Slots holding a message some handle still refers to.
    fn live(&self) -> usize {
        self.slots.len() - self.free.len()
    }
}

/// A fold waits until the tally holds at least this many keys.
const TALLY_FOLD_MIN: usize = 1024;

/// The deliveries [`Sim::run`] counts instead of queueing.
///
/// With a passive adversary (see [`Adversary::is_passive`]) and no chaos
/// timeline, a delivery to a faulty node changes nothing but the event
/// and message counts: no callback sees it, nothing is learned from it,
/// and no crash can drop it. [`Pending::post`] releases such a delivery's
/// payload at once and keeps only its `(at, seq)` key, with the sequence
/// number taken from the queue's own counter, so every event keeps the
/// number it would have had. The run counts the keys where the queue would
/// have popped them:
///
/// * before a pop, once the tally has doubled since the last fold, every
///   key below the popped one, so memory stays bounded by the deliveries
///   in flight;
/// * when `max_pulses` stops the run after event `K`, the keys below `K`;
/// * when the horizon stops it or the queue drains, the keys at or before
///   the horizon; `finished_at` is the later of the last event processed
///   and the last key counted;
/// * once the events processed plus the keys pending could exceed the
///   event cap, tallying stops (later deliveries take the queue), and the
///   pending keys are sorted once and counted one at a time in front of
///   each pop, so the cap trips on the event it would have tripped on,
///   tallied or queued.
///
/// The queued path is the oracle: `tallied_deliveries_leave_the_trace_unchanged`
/// (in the crate's tests) and `crusader_bench`'s
/// `tallied_cps_deliveries_leave_the_trace_unchanged` (CPS) run each case
/// again under an adversary that is as silent but not declared passive,
/// so every delivery is queued, and compare the traces.
struct Tally {
    /// By node index, whether deliveries to the node are tallied: the
    /// faulty set while tallying is on, empty once the cap has stopped it
    /// (or when it never started).
    unobserved: Vec<bool>,
    /// Keys not yet counted: in post order while tallying is on, sorted
    /// descending (the next one last) once it has stopped.
    keys: Vec<EventKey>,
    /// Fold again once `keys` is this long.
    fold_at: usize,
}

impl Tally {
    fn new(unobserved: Vec<bool>) -> Self {
        Tally {
            unobserved,
            keys: Vec::new(),
            fold_at: TALLY_FOLD_MIN,
        }
    }

    /// Whether a delivery to `to` is tallied rather than queued.
    #[inline]
    fn takes(&self, to: NodeId) -> bool {
        self.unobserved.get(to.index()).copied().unwrap_or(false)
    }

    /// Whether counting every pending key could trip the event cap.
    #[inline]
    fn cap_in_reach<M>(&self, world: &World<M>) -> bool {
        world.trace.events_processed + self.keys.len() as u64 >= world.max_events
    }

    /// Before the run processes the queued event `next` (`last` being the
    /// one it processed before): counts the keys below `next` if a fold
    /// is due or the cap is in reach. Returns false if one of them trips
    /// the cap.
    #[inline]
    fn before<M: Clone + CarriesSignatures>(
        &mut self,
        world: &mut World<M>,
        last: EventKey,
        next: EventKey,
    ) -> bool {
        if self.keys.len() < self.fold_at && !self.cap_in_reach(world) {
            return true;
        }
        let within_cap = self.count(world, last, |key| key < next);
        self.fold_at = (2 * self.keys.len()).max(TALLY_FOLD_MIN);
        within_cap
    }

    /// Counts the pending keys `due` selects, `last` being the last event
    /// the run processed. Returns false if one of them trips the event
    /// cap, which [`World::begin_event`] records as it does for a queued
    /// event.
    fn count<M: Clone + CarriesSignatures>(
        &mut self,
        world: &mut World<M>,
        last: EventKey,
        due: impl Fn(EventKey) -> bool,
    ) -> bool {
        if !self.unobserved.is_empty() && self.cap_in_reach(world) {
            // The keys below `last` were within the cap when it was popped.
            self.fold(world, |key| key < last);
            self.keys.sort_unstable_by_key(|&key| std::cmp::Reverse(key));
            self.unobserved = Vec::new();
        }
        if !self.unobserved.is_empty() {
            self.fold(world, due);
            return true;
        }
        while let Some(&key) = self.keys.last() {
            if !due(key) {
                break;
            }
            self.keys.pop();
            world.trace.tallied_deliveries += 1;
            if !world.begin_event(key.at(), true) {
                return false;
            }
        }
        true
    }

    /// Counts every pending key `due` selects at once.
    fn fold<M>(&mut self, world: &mut World<M>, due: impl Fn(EventKey) -> bool) {
        let pending = self.keys.len();
        let mut latest = None;
        self.keys.retain(|&key| {
            let counted = due(key);
            if counted {
                latest = latest.max(Some(key));
            }
            !counted
        });
        let counted = (pending - self.keys.len()) as u64;
        world.trace.events_processed += counted;
        world.trace.messages_delivered += counted;
        world.trace.tallied_deliveries += counted;
        if let Some(key) = latest {
            world.now = world.now.max(key.at());
        }
    }
}

/// Where the [`World`] puts what it schedules: one queue that numbers
/// events in push order, the message arena its `u32` handles index, and
/// the [`Tally`] of deliveries nobody observes. Every message — a
/// broadcast, an honest unicast, an adversary's `SendAs` — enters the
/// arena through [`share`](Self::share), and its deliveries carry a
/// handle on it.
pub(crate) struct Pending<M> {
    queue: EventQueue,
    messages: MessageArena<M>,
    tally: Tally,
}

impl<M: Clone> Pending<M> {
    /// Schedules `kind` at `at`, after everything already posted for the
    /// same instant.
    pub(crate) fn post(&mut self, at: Time, kind: EventKind) {
        match kind {
            EventKind::Deliver { to, msg, .. } if self.tally.takes(to) => {
                self.drop_payload(msg);
                let seq = self.queue.take_seq();
                self.tally.keys.push(EventKey::new(at, seq));
            }
            kind => self.queue.push(at, kind),
        }
    }

    /// Stores one message for `fanout` deliveries, each of which takes a
    /// copy of the returned handle.
    pub(crate) fn share(&mut self, msg: M, fanout: usize) -> u32 {
        self.messages.insert(msg, fanout)
    }

    /// A further handle on `id`, for a flood duplicate.
    pub(crate) fn copy_payload(&mut self, id: u32) -> u32 {
        self.messages.slot(id).remaining += 1;
        id
    }

    /// Releases a handle that will not reach a handler.
    pub(crate) fn drop_payload(&mut self, id: u32) {
        self.messages.release(id);
    }

    /// Reads message `id` for a faulty recipient, and whether its claims
    /// still need learning: every delivery of one message (a broadcast's
    /// fan-out, a flood's copies) carries the same claims, so only its
    /// first (earliest) faulty delivery can add knowledge.
    pub(crate) fn view_payload(&mut self, id: u32) -> (&M, bool) {
        let slot = self.messages.slot(id);
        let learn = !std::mem::replace(&mut slot.learned, true);
        (&slot.msg, learn)
    }
}

/// A deterministic discrete-event simulation of one execution of the model.
///
/// Construct via [`SimBuilder`]; consume via [`Sim::run`].
pub struct Sim<A: Automaton> {
    pub(crate) world: World<A::Msg>,
    pub(crate) nodes: Vec<Option<A>>,
    timers: TimerSlab,
    pending: Pending<A::Msg>,
    /// Pooled effect buffer, reused across every handler call so the
    /// per-event `Vec` allocation happens once per run, not once per event.
    node_effects: Vec<Effect<A::Msg>>,
}

impl<A: Automaton> Sim<A> {
    /// The honest node ids, in ascending order.
    #[must_use]
    pub fn honest(&self) -> &[NodeId] {
        &self.world.honest
    }

    /// The hardware clocks in use (indexable by node).
    #[must_use]
    pub fn clocks(&self) -> &[HardwareClock] {
        &self.world.env.clocks
    }

    /// Wraps this simulation in the [`ShardedSim`] shim; `lanes` is
    /// ignored.
    #[must_use]
    pub fn sharded(self, _lanes: usize) -> ShardedSim<A> {
        ShardedSim(self)
    }

    /// Runs the simulation to completion and returns the trace.
    ///
    /// The run ends when the horizon is reached, every honest node has
    /// produced `max_pulses` pulses, the event queue drains, or the event
    /// cap trips (recorded as a violation).
    pub fn run(mut self) -> Trace {
        self.world.schedule_recoveries(&mut self.pending);
        for v in self.world.honest.clone() {
            self.run_call(v, Call::Init);
        }
        self.world
            .with_adversary(&mut self.pending, |adv, api| adv.on_init(api));
        let horizon = self.world.env.horizon;
        // The last event processed; no key lies below this one.
        let mut last = EventKey::new(Time::ZERO, 0);
        // Whether the loop left the tally nothing to count.
        let settled = loop {
            let Some((key, event)) = self.pending.queue.pop_keyed() else {
                debug_assert_eq!(self.pending.messages.live(), 0, "a message handle leaked");
                break false;
            };
            if event.at > horizon {
                break false;
            }
            if !self.pending.tally.before(&mut self.world, last, key) {
                break true;
            }
            last = key;
            let popped = self
                .world
                .env
                .classify(&mut self.timers, event.at, event.kind);
            if !self.world.begin_event(event.at, popped.is_delivery()) {
                break true;
            }
            if let Popped::Honest { node, call } = popped {
                let call = call.resolve(|id| self.pending.messages.take(id));
                self.run_call(node, call);
            } else {
                self.world.settle(&mut self.pending, popped);
            }
            if self.world.done_by_pulses() {
                self.pending.tally.count(&mut self.world, key, |k| k < key);
                break true;
            }
        };
        if !settled {
            self.pending
                .tally
                .count(&mut self.world, last, |key| key.at() <= horizon);
        }
        let mut trace = self.world.trace;
        trace.finished_at = self.world.now;
        trace.timer_slots_high_water = self.timers.high_water() as u64;
        trace.queue_spill_count = self.pending.queue.spill_count();
        trace.queue_splice_count = self.pending.queue.splice_count();
        trace
    }

    /// Runs one handler of honest node `v` with the pooled effect buffer,
    /// then applies its effects.
    fn run_call(&mut self, v: NodeId, call: Call<A::Msg>) {
        let mut effects = std::mem::take(&mut self.node_effects);
        debug_assert!(effects.is_empty(), "pooled node buffer not drained");
        let env = &self.world.env;
        let node = self.nodes[v.index()].as_mut().expect("honest node present");
        call.run(
            node,
            &mut env.node_ctx(v, self.world.now, &mut self.timers, &mut effects),
        );
        for effect in effects.drain(..) {
            if let Effect::CancelTimer { id } = effect {
                self.timers.cancel(id);
            } else {
                self.world.apply_effect(&mut self.pending, v, effect);
            }
        }
        self.node_effects = effects;
    }
}

/// What used to be the sharded executor, now [`Sim::run`] under its old
/// names.
///
/// This type, [`Sim::sharded`] and [`MailboxStats`] are kept only because
/// the repo benchmark (`benchmark/src/workloads/sim_cps.rs`,
/// `benchmark/src/layers.rs`) still names them; they go once it stops
/// (ROADMAP, item 1).
pub struct ShardedSim<A: Automaton>(Sim<A>);

/// Always zero: [`ShardedSim`] posts to no mailbox.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MailboxStats {
    /// Always zero.
    pub posted: u64,
}

impl<A: Automaton> ShardedSim<A> {
    /// Does nothing.
    pub fn set_parallel(&mut self, _parallel: bool) {}

    /// [`Sim::run`].
    pub fn run(self) -> Trace {
        self.0.run()
    }

    /// [`Sim::run`], with zeroed [`MailboxStats`].
    pub fn run_with_stats(self) -> (Trace, MailboxStats) {
        (self.0.run(), MailboxStats::default())
    }
}
