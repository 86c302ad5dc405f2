//! The sharded large-`n` executor: per-node event lanes, fixed-order
//! mailboxes, and a conservative lookahead window, producing a trace that
//! is **bit-for-bit identical** to the single-lane [`Sim::run`].
//!
//! One event loop serializes every delivery, which caps experiments near
//! n ≈ 17; this module splits the work across `lanes` shards while keeping
//! the single-lane engine as the semantic reference (see `ARCHITECTURE.md`
//! at the repo root for the diagram and the full invariant).
//!
//! # Lanes, windows, mailboxes
//!
//! * **Lanes.** Node `v` belongs to lane `v.index() % lanes`. A lane owns
//!   its nodes' automatons, their timers, and a lane-local event queue
//!   (the engine's sliding-window queue) holding exactly the events
//!   destined for its nodes.
//! * **Windows.** Each round picks the globally earliest pending event
//!   time `t_min` and advances every lane — in parallel, on a persistent
//!   per-lane worker pool — through the window `[t_min, t_min + (d − ũ))`.
//!   `d − ũ` is
//!   the minimum delay of *any* link, so no message sent inside the
//!   window can also arrive inside it: the only intra-window events a
//!   lane can create are its own nodes' timers, which stay lane-local.
//!   (When ũ = d the lookahead degenerates to zero and windows shrink to
//!   a single instant `{t_min}`, which still makes progress one
//!   timestamp at a time.)
//! * **Mailboxes.** A lane classifies each popped event with the
//!   single-lane engine's `Env::classify` and runs honest handlers in
//!   place. Everything that touches the globally ordered `World` — the
//!   outcome of every other pop, and the effects (sends, broadcasts,
//!   timers, pulses, violations) of every handler — goes into a per-lane
//!   mailbox tagged with the source event's `(at, seq)` key. After the
//!   window, a sequential *reconcile* merges the mailboxes in ascending
//!   key order and hands each record to the same `World` functions
//!   [`Sim::run`] calls: they draw delay randomness, invoke adversary
//!   callbacks and update the signature-knowledge tracker, and the
//!   reconcile's `Post` implementation assigns global sequence numbers
//!   and routes each new event into the destination node's lane.
//!
//! # Why the merged order equals the single-lane `(at, seq)` order
//!
//! The single-lane engine pops events in `(at, seq)` order, where `seq`
//! is the global push counter; every observable side effect (RNG draws,
//! adversary state, knowledge updates, trace rows, and the `seq` values
//! themselves) happens either when an event is popped or when one of its
//! effects is applied. Sketch of the equivalence, in three steps:
//!
//! 1. *Lane-local pop order is the global order restricted to the lane.*
//!    A lane's queue holds events with globally assigned sequence numbers
//!    (from earlier reconciles) plus provisional in-window timers.
//!    Provisional entries are keyed above every already-assigned sequence
//!    number, and their eventual true numbers are assigned later than
//!    every number already in the queue — so both orders agree; and two
//!    provisional timers are keyed in arming order, which is also the
//!    order the reconcile assigns their true numbers in.
//! 2. *Handlers commute inside a window.* An honest handler reads only
//!    its own node's state, its own clock, and the message — never real
//!    time, the RNG, or another node's state. Because no message sent in
//!    the window arrives in the window, the set of events a lane
//!    processes (and each handler's inputs) is independent of the other
//!    lanes' progress, so running lanes concurrently computes the same
//!    per-event effect lists as the single-lane engine.
//! 3. *The reconcile calls the same step.* It consumes mailbox records in
//!    merged `(at, seq)` order — resolving a provisional timer's true
//!    number when its arming effect is replayed, which always precedes
//!    it — and passes each to the `World` functions the single-lane
//!    event loop calls for the same event (`begin_event`, `settle`,
//!    `apply_effect`, `done_by_pulses`). The pushes, delay draws,
//!    adversary callbacks, trace writes and early stops (pulse completion
//!    and the event cap, past which trailing lane work is discarded
//!    unobserved) therefore happen in the same order with the same
//!    values; the only difference is where `Post::post` puts an event.
//!
//! Steps 1–3 give induction over windows: after every reconcile the
//! queues, the RNG, the adversary, the tracker, and the trace are in the
//! exact state the single-lane engine reaches after processing the same
//! prefix of events. The pinned trace hashes in
//! `crates/bench/tests/determinism.rs` and the cross-check proptests in
//! `crates/bench/tests/sharded.rs` hold this equivalence to account.
//!
//! Three intentional deviations: [`Trace::timer_slots_high_water`] is
//! reported as the *sum* of the per-lane slab high-waters — still a valid
//! memory bound, but an upper estimate of the single global slab's
//! high-water (lanes cannot observe each other's concurrent occupancy) —
//! and [`Trace::queue_spill_count`] / [`Trace::queue_splice_count`] sum
//! the per-lane queues' spill and splice counters, which need not equal
//! the single global queue's (lane frontiers advance independently, and
//! a lane's window slides down whenever the reconcile posts traffic
//! under the bucket it last claimed). All three are performance
//! diagnostics, excluded from the determinism trace hash.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::iter::Peekable;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::vec::IntoIter;

use crossbeam::channel::{Receiver, Sender};
use crusader_crypto::NodeId;
use crusader_time::{Dur, Time};

use crate::automaton::{Automaton, Call, Effect};
use crate::engine::Sim;
use crate::event::{EventKey, EventKind, EventQueue, Payload, SharedPayload, TimerSlab};
use crate::trace::Trace;
use crate::world::{Env, Popped, Post, World};

/// Sequence numbers at or above this value are *provisional*: lane-local
/// stand-ins for in-window timers whose true global number is assigned by
/// the next reconcile. Provisional entries never outlive their window, so
/// they only ever compare against (a) true numbers assigned in earlier
/// reconciles — all smaller, matching the fact that the timer's true
/// number will be larger — and (b) other provisional entries of the same
/// lane, which are counter-ordered exactly like their true numbers.
/// Reserving the top half of the 2³⁶ sequence space caps a sharded run at
/// 2³⁵ ≈ 34 G events (the default cap is 50 M).
const PROVISIONAL_BASE: u64 = 1 << 35;

/// How a record's sequence number is known.
enum SeqRef {
    /// Assigned by a previous reconcile (or init); globally final.
    Known(u64),
    /// Provisional in-window timer: index into the lane's pending table,
    /// filled in by the reconcile when the arming effect is replayed.
    Pending(u32),
}

/// One handler effect a lane records for the reconcile.
enum Replay<M> {
    /// Applied by the reconcile through [`World::apply_effect`].
    Apply(Effect<M>),
    /// A timer firing inside the window, which the lane already pushed
    /// under a provisional number; the reconcile assigns `pending[slot]`
    /// its true sequence number.
    Provisional(u32),
}

/// What a lane did with one popped event.
enum RecordBody<M> {
    /// Settled by the reconcile through [`World::settle`]: every outcome
    /// of [`Env::classify`] except an honest handler and an in-window
    /// deferral.
    Settle(Popped<Payload<M>>),
    /// An honest node's handler ran, for a message delivery or not. (The
    /// flag lives here, not as a field of [`Record`]: a lone `bool` there
    /// made every record push wait on a store-forwarding stall.) Its
    /// effects are the next `effects` entries of the lane's flat arena —
    /// an offset-free encoding, since records are replayed strictly in
    /// lane order. (A per-record `Vec` here would put one allocation per
    /// event back on the hot path, and worse: allocated on a lane thread,
    /// freed on the reconcile thread, which serializes lanes on the
    /// allocator.)
    Ran {
        node: NodeId,
        delivery: bool,
        effects: u32,
    },
    /// A crashed node's timer deferred to a recovery instant inside the
    /// window: the lane re-pushed it provisionally, like an in-window
    /// timer, and the reconcile assigns `pending[slot]` its true number.
    Deferred { slot: u32 },
}

impl<M> RecordBody<M> {
    fn is_delivery(&self) -> bool {
        match self {
            RecordBody::Settle(popped) => popped.is_delivery(),
            RecordBody::Ran { delivery, .. } => *delivery,
            RecordBody::Deferred { .. } => false,
        }
    }
}

/// One popped event plus everything the reconcile needs to replay it.
struct Record<M> {
    at: Time,
    seq: SeqRef,
    body: RecordBody<M>,
}

/// The time span a lane may advance through without synchronizing.
#[derive(Clone, Copy)]
enum Window {
    /// `[t_min, horizon)` — the normal case, `horizon = t_min + (d − ũ)`.
    Before(Time),
    /// `{t}` — the degenerate ũ = d case: one timestamp at a time.
    At(Time),
}

impl Window {
    fn contains(self, at: Time) -> bool {
        match self {
            Window::Before(h) => at < h,
            Window::At(t) => at <= t,
        }
    }
}

/// One shard: the nodes it owns, their timers, and their event queue.
struct Lane<A: Automaton> {
    /// Automatons of the nodes assigned to this lane, indexed by
    /// `node.index() / stride` (`None` for faulty nodes).
    nodes: Vec<Option<A>>,
    /// The lane count: node `v` belongs to lane `v.index() % stride`.
    stride: usize,
    queue: EventQueue<Payload<A::Msg>>,
    timers: TimerSlab,
    /// This window's mailbox, in lane pop order (= global order
    /// restricted to the lane; see the module docs).
    records: Vec<Record<A::Msg>>,
    /// Flat effect arena backing `records` (one growth curve per window
    /// instead of one allocation per event).
    arena: Vec<Replay<A::Msg>>,
    /// Provisional in-window timer pushes so far this window.
    provisional: u32,
    /// Pooled effect buffer (one allocation per run, as in the engine).
    effects: Vec<Effect<A::Msg>>,
    /// Deliver events popped over the whole run (mailbox diagnostics).
    delivers_popped: u64,
}

impl<A: Automaton> Lane<A> {
    /// A contentless placeholder left behind while the real lane is out
    /// on a worker thread (never advanced, never observed). Built from
    /// empty `Vec`s and [`EventQueue::placeholder`], so the per-window
    /// swap allocates nothing.
    fn vacant() -> Self {
        Lane {
            nodes: Vec::new(),
            stride: 1,
            queue: EventQueue::placeholder(),
            timers: TimerSlab::new(),
            records: Vec::new(),
            arena: Vec::new(),
            provisional: 0,
            effects: Vec::new(),
            delivers_popped: 0,
        }
    }

    /// Processes every pending event inside `window` (capped by the
    /// horizon and the event-cap `budget`), recording one mailbox entry
    /// per pop.
    fn advance(&mut self, env: &Env, window: Window, budget: usize) {
        while let Some(key) = self.queue.peek_key() {
            if !window.contains(key.at()) || key.at() > env.horizon {
                break;
            }
            if self.records.len() >= budget {
                // The global event cap is guaranteed to trip inside this
                // window; reconcile finds the exact tripping event.
                break;
            }
            let (key, event) = self.queue.pop_keyed().expect("peeked queue is non-empty");
            let seq = if key.seq() >= PROVISIONAL_BASE {
                #[allow(clippy::cast_possible_truncation)]
                SeqRef::Pending((key.seq() - PROVISIONAL_BASE) as u32)
            } else {
                SeqRef::Known(key.seq())
            };
            let at = event.at;
            let popped = env.classify(&mut self.timers, at, event.kind);
            self.delivers_popped += u64::from(popped.is_delivery());
            let body = match popped {
                Popped::Honest { node, call } => {
                    let delivery = matches!(call, Call::Message { .. });
                    let call = call.resolve(SharedPayload::into_owned);
                    let effects = self.run_handler(env, node, at, Some(window), call);
                    RecordBody::Ran {
                        node,
                        delivery,
                        effects,
                    }
                }
                Popped::Defer { node, id, resume }
                    if window.contains(resume) && resume <= env.horizon =>
                {
                    let slot = self.push_provisional(resume, EventKind::Timer { node, id });
                    RecordBody::Deferred { slot }
                }
                popped => RecordBody::Settle(popped),
            };
            self.records.push(Record { at, seq, body });
        }
    }

    /// Pushes an in-window event under the next provisional sequence
    /// number and returns its slot in the pending table.
    fn push_provisional(&mut self, at: Time, kind: EventKind<Payload<A::Msg>>) -> u32 {
        let slot = self.provisional;
        self.provisional += 1;
        self.queue
            .push_with_seq(at, PROVISIONAL_BASE + u64::from(slot), kind);
        slot
    }

    /// Runs one handler of node `v` at real time `now` and records its
    /// effects, provisionally pushing timers that fire inside `window`
    /// (pass `None` when the reconcile applies the effects at once, so
    /// every timer gets its true sequence number). Returns the number of
    /// recorded effects.
    fn run_handler(
        &mut self,
        env: &Env,
        v: NodeId,
        now: Time,
        window: Option<Window>,
        call: Call<A::Msg>,
    ) -> u32 {
        let mut effects = std::mem::take(&mut self.effects);
        debug_assert!(effects.is_empty(), "pooled lane buffer not drained");
        let node = self.nodes[v.index() / self.stride]
            .as_mut()
            .expect("honest node present");
        call.run(
            node,
            &mut env.node_ctx(v, now, &mut self.timers, &mut effects),
        );
        let before = self.arena.len();
        for effect in effects.drain(..) {
            let replay = match effect {
                Effect::SetTimer { id, at } => {
                    let fire = env.fire_time(v, now, at);
                    if window.is_some_and(|w| w.contains(fire)) && fire <= env.horizon {
                        let slot = self.push_provisional(fire, EventKind::Timer { node: v, id });
                        Replay::Provisional(slot)
                    } else {
                        Replay::Apply(Effect::SetTimer { id, at })
                    }
                }
                // Lane-local, order-insensitive across lanes (a node only
                // ever cancels its own timers): applied here so later
                // in-window pops of the same lane observe it.
                Effect::CancelTimer { id } => {
                    self.timers.cancel(id);
                    continue;
                }
                effect => Replay::Apply(effect),
            };
            self.arena.push(replay);
        }
        self.effects = effects;
        u32::try_from(self.arena.len() - before).expect("per-event effect count fits u32")
    }
}

/// Mailbox-conservation diagnostics from a sharded run: every message
/// routed through the reconcile mailboxes must end up popped by a lane or
/// still pending when the run stops — none lost, none duplicated.
///
/// Returned by [`ShardedSim::run_with_stats`]; the conservation proptest
/// in `crates/sim/tests/` pins `posted == consumed + pending`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MailboxStats {
    /// Deliver events routed into lane queues by init and the reconcile.
    pub posted: u64,
    /// Deliver events popped by lanes (including any discarded past an
    /// early-stop point).
    pub consumed: u64,
    /// Deliver events still queued when the run stopped.
    pub pending: u64,
}

/// Outcome of replaying one window's mailboxes.
#[derive(PartialEq)]
enum Flow {
    Continue,
    Stop,
}

/// The next record source picked by the reconcile merge.
enum Src {
    /// A mailbox record from lane `l`'s window phase.
    Lane(usize),
    /// An adversary real-time timer.
    Adv(u64),
    /// A *queue* event that arrived at the current instant during this
    /// very reconcile — only possible in the degenerate zero-lookahead
    /// window, where a zero-delay send lands at the time being replayed.
    /// Processed inline, single-lane style (the reconcile is the serial
    /// engine at that point).
    Queue(usize),
}

/// The sharded executor's [`Post`]: every event the world schedules gets
/// the next global sequence number and goes to the lane of its node, or,
/// for an adversary timer, to the adversary queue.
struct Router<A: Automaton> {
    lanes: Vec<Lane<A>>,
    /// Global sequence counter; all true sequence numbers come from here.
    next_seq: u64,
    /// Adversary real-time timers, merged into the reconcile by key
    /// (adversary callbacks only ever run in the sequential reconcile).
    adv_queue: BinaryHeap<Reverse<(EventKey, u64)>>,
    /// Deliver events routed into lane queues.
    posted: u64,
}

impl<A: Automaton> Router<A> {
    fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        assert!(
            seq < PROVISIONAL_BASE,
            "sharded runs cap at 2^35 scheduled events"
        );
        self.next_seq += 1;
        seq
    }
}

impl<A: Automaton> Post<A::Msg> for Router<A> {
    type Handle = Payload<A::Msg>;

    fn post(&mut self, at: Time, kind: EventKind<Payload<A::Msg>>) {
        let seq = self.alloc_seq();
        let node = match &kind {
            EventKind::AdvTimer { key } => {
                self.adv_queue.push(Reverse((EventKey::new(at, seq), *key)));
                return;
            }
            EventKind::Deliver { to, .. } => {
                self.posted += 1;
                *to
            }
            EventKind::Timer { node, .. } | EventKind::Recover { node } => *node,
        };
        let lane = node.index() % self.lanes.len();
        self.lanes[lane].queue.push_with_seq(at, seq, kind);
    }

    fn share(&mut self, msg: A::Msg, _fanout: usize) -> Payload<A::Msg> {
        SharedPayload::new(msg)
    }

    fn view_payload<'a>(&'a mut self, msg: &'a Payload<A::Msg>) -> (&'a A::Msg, bool) {
        (&msg.msg, msg.needs_learning())
    }
}

/// The sharded simulation executor. Construct via [`Sim::sharded`];
/// consume via [`ShardedSim::run`].
///
/// Produces the same [`Trace`] — bit for bit, including event and message
/// counts, pulse times, and violation order — as the single-lane
/// [`Sim::run`] on the same builder and seed (the documented
/// exceptions are [`Trace::timer_slots_high_water`],
/// [`Trace::queue_spill_count`] and [`Trace::queue_splice_count`]; see
/// the [module docs](self)). Lanes
/// advance on a pool of long-lived worker threads — one per lane, spawned
/// lazily on the first parallel window, handed their lanes through
/// channels, and parked between windows — so wall-clock improves with
/// lane count on large `n` (without paying a `thread::scope` spawn/join
/// per conservative window) while small runs and single-CPU hosts fall
/// back to inline execution. [`ShardedSim::set_parallel`] overrides the
/// automatic choice; the trace is identical either way.
pub struct ShardedSim<A: Automaton> {
    world: World<A::Msg>,
    router: Router<A>,
    /// The conservative window length `d − ũ` (minimum delay of any
    /// link): nothing sent inside a window can arrive inside it.
    lookahead: Dur,
    /// Whether window work is dispatched to the persistent worker pool.
    /// Defaults to `available_parallelism() > 1`; on a single-CPU host
    /// the lanes run inline (same order, same trace — scheduling never
    /// affects output). Overridable via [`Self::set_parallel`].
    parallel: bool,
    /// Long-lived per-lane worker threads, spawned lazily on the first
    /// window that has parallel work and parked on their job channels
    /// between windows.
    pool: Option<WorkerPool<A>>,
}

/// One window's work order for a lane worker: the lane travels to the
/// worker thread by value and comes back through the done channel.
struct Job<A: Automaton> {
    lane: Lane<A>,
    window: Window,
    budget: usize,
}

/// What a worker sends back: the lane index it owns plus either the
/// advanced lane or the panic payload of a handler that blew up (resumed
/// on the reconcile thread, exactly like the old scoped-thread join).
type Done<A> = (usize, std::thread::Result<Lane<A>>);

/// The persistent worker pool: one long-lived thread per lane, fed
/// through an unbounded channel hand-off and parked between conservative
/// windows. Replaces the per-window `thread::scope` spawn/join, which
/// paid thread creation and teardown for every window of length `d − ũ`
/// — at large `n` that is thousands of windows per run.
struct WorkerPool<A: Automaton> {
    jobs: Vec<Sender<Job<A>>>,
    done_rx: Receiver<Done<A>>,
    handles: Vec<JoinHandle<()>>,
}

impl<A: Automaton> WorkerPool<A> {
    /// Spawns one worker per lane. Each worker loops: receive a job,
    /// advance the lane through its window, send the lane back; it exits
    /// when its job channel disconnects (pool drop).
    fn spawn(env: &Arc<Env>, lanes: usize) -> Self {
        let (done_tx, done_rx) = crossbeam::channel::unbounded();
        let mut jobs = Vec::with_capacity(lanes);
        let handles = (0..lanes)
            .map(|index| {
                let (job_tx, job_rx) = crossbeam::channel::unbounded::<Job<A>>();
                jobs.push(job_tx);
                let env = Arc::clone(env);
                let done = done_tx.clone();
                std::thread::spawn(move || {
                    while let Ok(job) = job_rx.recv() {
                        let Job {
                            mut lane,
                            window,
                            budget,
                        } = job;
                        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            lane.advance(&env, window, budget);
                            lane
                        }));
                        if done.send((index, result)).is_err() {
                            break; // pool dropped mid-run (reconcile panicked)
                        }
                    }
                })
            })
            .collect();
        WorkerPool {
            jobs,
            done_rx,
            handles,
        }
    }
}

impl<A: Automaton> Drop for WorkerPool<A> {
    fn drop(&mut self) {
        // Disconnect every job channel; the workers' recv loops end.
        self.jobs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<A: Automaton> ShardedSim<A> {
    /// Splits a built [`Sim`] into `lanes` shards (clamped to `n`).
    ///
    /// # Panics
    ///
    /// Panics if `lanes == 0`.
    pub(crate) fn new(sim: Sim<A>, lanes: usize) -> Self {
        assert!(lanes > 0, "need at least one lane");
        let world = sim.world;
        let n = world.env.n;
        let count = lanes.min(n);
        let mut nodes = sim.nodes;
        let lanes = (0..count)
            .map(|l| Lane {
                nodes: (l..n).step_by(count).map(|i| nodes[i].take()).collect(),
                stride: count,
                queue: EventQueue::with_delay_hint(world.link.d),
                ..Lane::vacant()
            })
            .collect();
        ShardedSim {
            lookahead: world.link.d - world.link.u_tilde,
            world,
            router: Router {
                lanes,
                next_seq: 0,
                adv_queue: BinaryHeap::new(),
                posted: 0,
            },
            parallel: std::thread::available_parallelism().is_ok_and(|p| p.get() > 1),
            pool: None,
        }
    }

    /// Number of lanes (after clamping to `n`).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.router.lanes.len()
    }

    /// Overrides the automatic use-worker-threads decision (which is
    /// "spawn the pool iff `available_parallelism() > 1`").
    ///
    /// `set_parallel(true)` forces window work through the persistent
    /// worker pool even on a single-CPU host — slower there, but it
    /// exercises the exact cross-thread hand-off path, which is how the
    /// CI bench-smoke job and the determinism tests cross-check the pool
    /// against the inline executor on any machine. `set_parallel(false)`
    /// forces the inline path. The trace is bit-for-bit identical either
    /// way: lane scheduling never affects output order.
    pub fn set_parallel(&mut self, parallel: bool) {
        self.parallel = parallel;
    }

    /// Runs the sharded simulation to completion and returns the trace.
    ///
    /// Stops under exactly the single-lane conditions: horizon reached,
    /// every honest node at `max_pulses`, queues drained, or the event
    /// cap tripped (recorded as a violation).
    #[must_use]
    pub fn run(self) -> Trace {
        self.run_with_stats().0
    }

    /// [`run`](Self::run), also returning [`MailboxStats`] for
    /// conservation checks.
    #[must_use]
    pub fn run_with_stats(mut self) -> (Trace, MailboxStats) {
        // Init runs inline, in the single-lane order.
        self.world.schedule_recoveries(&mut self.router);
        for v in self.world.honest.clone() {
            self.run_handler_inline(v, Call::Init);
        }
        self.world
            .with_adversary(&mut self.router, |adv, api| adv.on_init(api));
        while let Some(start) = self.global_min_key() {
            if start.at() > self.world.env.horizon {
                break;
            }
            // Degrade to the single-instant window when the lookahead is
            // zero (ũ = d) — or rounds away entirely (huge `t_min` next
            // to a tiny `d − ũ`), which would otherwise make an empty
            // exclusive window and stall the loop.
            let horizon_end = start.at() + self.lookahead;
            let window = if self.lookahead > Dur::ZERO && horizon_end > start.at() {
                Window::Before(horizon_end)
            } else {
                Window::At(start.at())
            };
            self.lane_phase(window);
            if self.reconcile(window) == Flow::Stop {
                break;
            }
        }
        let lanes = &self.router.lanes;
        let mut trace = self.world.trace;
        trace.finished_at = self.world.now;
        trace.timer_slots_high_water = lanes.iter().map(|l| l.timers.high_water() as u64).sum();
        trace.queue_spill_count = lanes.iter().map(|l| l.queue.spill_count()).sum();
        trace.queue_splice_count = lanes.iter().map(|l| l.queue.splice_count()).sum();
        let stats = MailboxStats {
            posted: self.router.posted,
            consumed: lanes.iter().map(|l| l.delivers_popped).sum(),
            pending: lanes
                .iter()
                .map(|l| l.queue.pending_deliveries() as u64)
                .sum(),
        };
        (trace, stats)
    }

    /// The earliest pending `(at, seq)` key across lanes and adversary
    /// timers — the next window's start. (`&mut`: peeking may lazily
    /// claim a lane queue's next ring bucket, sliding its window past
    /// it; a reconcile push under that bucket slides it back down.)
    fn global_min_key(&mut self) -> Option<EventKey> {
        let lane_min = self
            .router
            .lanes
            .iter_mut()
            .filter_map(|l| l.queue.peek_key())
            .min();
        let adv_min = self.router.adv_queue.peek().map(|Reverse((key, _))| *key);
        match (lane_min, adv_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advances every lane with window work — through the persistent
    /// worker pool when more than one lane has any (and the host or an
    /// override says parallelism pays), inline otherwise.
    fn lane_phase(&mut self, window: Window) {
        // Saturating: an effectively-uncapped run (`max_events(u64::MAX)`)
        // must yield an unbounded budget, not a wrapped-to-zero one.
        let budget = usize::try_from(
            (self.world.max_events - self.world.trace.events_processed).saturating_add(1),
        )
        .unwrap_or(usize::MAX);
        let env = &self.world.env;
        let lanes = &mut self.router.lanes;
        let work: Vec<usize> = lanes
            .iter_mut()
            .enumerate()
            .filter_map(|(i, l)| {
                l.queue
                    .peek_key()
                    .is_some_and(|k| window.contains(k.at()) && k.at() <= env.horizon)
                    .then_some(i)
            })
            .collect();
        if self.parallel && work.len() > 1 {
            // Lanes travel to their (lazily spawned, long-lived) workers
            // by value and come back through the shared done channel;
            // completion order is irrelevant, the reconcile merge orders
            // by key.
            let pool = self
                .pool
                .get_or_insert_with(|| WorkerPool::spawn(env, lanes.len()));
            for &l in &work {
                let lane = std::mem::replace(&mut lanes[l], Lane::vacant());
                pool.jobs[l]
                    .send(Job {
                        lane,
                        window,
                        budget,
                    })
                    .unwrap_or_else(|_| unreachable!("lane worker exited while pool is live"));
            }
            for _ in 0..work.len() {
                let (index, result) = pool
                    .done_rx
                    .recv()
                    .expect("lane workers hold the done channel open");
                match result {
                    Ok(lane) => lanes[index] = lane,
                    // A handler panicked on a worker: surface it on the
                    // reconcile thread, as the scoped join used to.
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        } else {
            for l in work {
                lanes[l].advance(env, window, budget);
            }
        }
    }

    /// The sequential merge: replays this window's mailboxes (and any
    /// in-window adversary timers) in ascending `(at, seq)` order.
    fn reconcile(&mut self, window: Window) -> Flow {
        let mut records: Vec<Peekable<IntoIter<Record<A::Msg>>>> = self
            .router
            .lanes
            .iter_mut()
            .map(|l| std::mem::take(&mut l.records).into_iter().peekable())
            .collect();
        let mut arenas: Vec<IntoIter<Replay<A::Msg>>> = self
            .router
            .lanes
            .iter_mut()
            .map(|l| std::mem::take(&mut l.arena).into_iter())
            .collect();
        let mut pending: Vec<Vec<u64>> = self
            .router
            .lanes
            .iter_mut()
            .map(|l| {
                let slots = std::mem::take(&mut l.provisional);
                vec![u64::MAX; slots as usize]
            })
            .collect();
        let resolve = |rec: &Record<A::Msg>, pending: &[u64]| -> EventKey {
            let seq = match rec.seq {
                SeqRef::Known(seq) => seq,
                SeqRef::Pending(slot) => {
                    let seq = pending[slot as usize];
                    debug_assert_ne!(seq, u64::MAX, "timer replayed before its arming effect");
                    seq
                }
            };
            EventKey::new(rec.at, seq)
        };
        // Cached resolved head key per lane, recomputed only when that
        // lane's head is consumed (a provisional head is always resolvable
        // by then: its arming record precedes it in the same lane).
        let mut heads: Vec<Option<EventKey>> = Vec::with_capacity(records.len());
        for (l, recs) in records.iter_mut().enumerate() {
            heads.push(recs.peek().map(|r| resolve(r, &pending[l])));
        }
        let horizon = self.world.env.horizon;
        loop {
            let mut best: Option<(EventKey, Src)> = None;
            for (l, key) in heads.iter().enumerate() {
                if let Some(key) = *key {
                    if best.as_ref().is_none_or(|(k, _)| key < *k) {
                        best = Some((key, Src::Lane(l)));
                    }
                }
            }
            if let Some(Reverse((key, adv_key))) = self.router.adv_queue.peek() {
                if window.contains(key.at())
                    && key.at() <= horizon
                    && best.as_ref().is_none_or(|(k, _)| *key < *k)
                {
                    best = Some((*key, Src::Adv(*adv_key)));
                }
            }
            // Zero-lookahead windows can grow same-instant work *during*
            // the reconcile (a zero-delay adversarial send arriving at the
            // time being replayed); those land in lane queues, so poll
            // them too. Positive-lookahead windows never need this: every
            // send travels at least the lookahead, past the window end.
            if matches!(window, Window::At(_)) {
                for (l, lane) in self.router.lanes.iter_mut().enumerate() {
                    if let Some(key) = lane.queue.peek_key() {
                        if window.contains(key.at())
                            && key.at() <= horizon
                            && best.as_ref().is_none_or(|(k, _)| key < *k)
                        {
                            best = Some((key, Src::Queue(l)));
                        }
                    }
                }
            }
            let Some((key, src)) = best else {
                return Flow::Continue;
            };
            match src {
                Src::Adv(adv_key) => {
                    self.router.adv_queue.pop();
                    if !self.world.begin_event(key.at(), false) {
                        return Flow::Stop;
                    }
                    self.world
                        .settle(&mut self.router, Popped::AdvTimer(adv_key));
                }
                // Pops and fully processes the lane's head event here,
                // single-lane style: same-instant arrivals must interleave
                // with mailbox records and adversary timers in `(at, seq)`
                // order. Timers the handler arms get true sequence
                // numbers, so a clamped same-instant timer re-enters this
                // merge via the queue poll.
                Src::Queue(l) => {
                    let lane = &mut self.router.lanes[l];
                    let (_, event) = lane.queue.pop_keyed().expect("peeked queue is non-empty");
                    let popped = self
                        .world
                        .env
                        .classify(&mut lane.timers, event.at, event.kind);
                    lane.delivers_popped += u64::from(popped.is_delivery());
                    if !self.world.begin_event(key.at(), popped.is_delivery()) {
                        return Flow::Stop;
                    }
                    if let Popped::Honest { node, call } = popped {
                        self.run_handler_inline(node, call.resolve(SharedPayload::into_owned));
                    } else {
                        self.world.settle(&mut self.router, popped);
                    }
                }
                Src::Lane(l) => {
                    let rec = records[l].next().expect("peeked record present");
                    if !self.world.begin_event(key.at(), rec.body.is_delivery()) {
                        return Flow::Stop;
                    }
                    match rec.body {
                        RecordBody::Settle(popped) => self.world.settle(&mut self.router, popped),
                        RecordBody::Ran { node, effects, .. } => {
                            let effects = arenas[l].by_ref().take(effects as usize);
                            self.replay(node, effects, &mut pending[l]);
                        }
                        RecordBody::Deferred { slot } => {
                            pending[l][slot as usize] = self.router.alloc_seq();
                        }
                    }
                    heads[l] = records[l].peek().map(|r| resolve(r, &pending[l]));
                }
            }
            if self.world.done_by_pulses() {
                return Flow::Stop;
            }
        }
    }

    /// Applies one honest handler's recorded effects in order.
    fn replay(
        &mut self,
        node: NodeId,
        effects: impl Iterator<Item = Replay<A::Msg>>,
        pending: &mut [u64],
    ) {
        for effect in effects {
            match effect {
                Replay::Apply(effect) => self.world.apply_effect(&mut self.router, node, effect),
                Replay::Provisional(slot) => pending[slot as usize] = self.router.alloc_seq(),
            }
        }
    }

    /// Runs an honest handler on the reconcile thread at the current
    /// time and applies its effects at once (init and zero-lookahead
    /// inline processing; timers get true sequence numbers, never
    /// provisional ones).
    fn run_handler_inline(&mut self, v: NodeId, call: Call<A::Msg>) {
        let l = v.index() % self.router.lanes.len();
        let lane = &mut self.router.lanes[l];
        lane.run_handler(&self.world.env, v, self.world.now, None, call);
        let effects = std::mem::take(&mut lane.arena);
        self.replay(v, effects.into_iter(), &mut []);
    }
}

#[cfg(test)]
mod tests {
    use crusader_crypto::{CarriesSignatures, NodeId};
    use crusader_time::drift::DriftModel;
    use crusader_time::{Dur, LocalTime, Time};

    use crate::adversary::{Adversary, AdversaryApi, SilentAdversary};
    use crate::automaton::{Automaton, Context, TimerId};
    use crate::engine::{Sim, SimBuilder};
    use crate::network::{DelayModel, LinkConfig};
    use crate::trace::Trace;

    /// Relay protocol exercising every effect kind: each node re-broadcasts
    /// the first few tokens it sees, pulses on a local-time cadence, arms a
    /// decoy timer per round and cancels it, and self-reports a violation
    /// at round 3.
    #[derive(Debug, Clone)]
    struct Token(u32);
    impl CarriesSignatures for Token {}

    struct Relay {
        me: NodeId,
        rounds: u64,
        relayed: u32,
    }

    impl Automaton for Relay {
        type Msg = Token;

        fn on_init(&mut self, ctx: &mut dyn Context<Token>) {
            if self.me.index() == 0 {
                ctx.broadcast(Token(0));
            }
            ctx.set_timer_at(LocalTime::from_millis(1.0));
        }

        fn on_message(&mut self, from: NodeId, msg: Token, ctx: &mut dyn Context<Token>) {
            if msg.0 < 2 && self.relayed < 3 {
                self.relayed += 1;
                ctx.send(from, Token(msg.0 + 1));
            }
        }

        fn on_timer(&mut self, _t: TimerId, ctx: &mut dyn Context<Token>) {
            self.rounds += 1;
            ctx.pulse(self.rounds);
            if self.rounds == 3 {
                ctx.mark_violation("round three".to_owned());
            }
            let next = LocalTime::from_millis(1.0 + self.rounds as f64);
            ctx.set_timer_at(next);
            let decoy = ctx.set_timer_at(next + Dur::from_micros(10.0));
            ctx.cancel_timer(decoy);
        }
    }

    /// An adversary that echoes deliveries back, picks delays, and keeps a
    /// real-time timer cadence — exercising every reconcile-side callback.
    struct Meddler {
        ticks: u64,
    }

    impl Adversary<Token> for Meddler {
        fn on_init(&mut self, api: &mut AdversaryApi<'_, Token>) {
            api.set_timer(Time::from_micros(500.0), 1);
        }

        fn on_deliver(
            &mut self,
            to: NodeId,
            from: NodeId,
            msg: &Token,
            api: &mut AdversaryApi<'_, Token>,
        ) {
            if msg.0 == 0 {
                api.send_as(to, from, Token(7));
            }
        }

        fn on_timer(&mut self, key: u64, api: &mut AdversaryApi<'_, Token>) {
            self.ticks += 1;
            if self.ticks < 8 {
                api.set_timer(api.now() + Dur::from_micros(700.0), key);
            }
            for &c in api.corrupted() {
                for v in 0..api.n() {
                    if v != c.index() {
                        api.send_as(c, NodeId::new(v), Token(9));
                    }
                }
            }
        }

        fn pick_delay(
            &mut self,
            from: NodeId,
            to: NodeId,
            bounds: (Dur, Dur),
        ) -> Option<Dur> {
            if (from.index() + to.index()).is_multiple_of(3) {
                Some(bounds.0)
            } else {
                None
            }
        }
    }

    fn builder(n: usize, seed: u64) -> SimBuilder {
        SimBuilder::new(n)
            .link(Dur::from_millis(1.0), Dur::from_micros(200.0))
            .drift(DriftModel::RandomStable, 1.002, Dur::from_micros(50.0))
            .seed(seed)
            .horizon(Time::from_secs(0.02))
    }

    fn relay(me: NodeId) -> Relay {
        Relay {
            me,
            rounds: 0,
            relayed: 0,
        }
    }

    fn assert_traces_equal(single: &Trace, sharded: &Trace) {
        assert_eq!(single.pulses, sharded.pulses);
        assert_eq!(single.violations, sharded.violations);
        assert_eq!(single.forgeries_blocked, sharded.forgeries_blocked);
        assert_eq!(single.messages_delivered, sharded.messages_delivered);
        assert_eq!(single.events_processed, sharded.events_processed);
        assert_eq!(single.finished_at, sharded.finished_at);
        assert_eq!(single.chaos_drops, sharded.chaos_drops);
        assert_eq!(single.chaos_duplicates, sharded.chaos_duplicates);
    }

    fn build(n: usize, seed: u64, faulty: &[usize], adversarial: bool) -> Sim<Relay> {
        let mut b = builder(n, seed).faulty(faulty.iter().copied());
        if adversarial {
            b = b.delays(DelayModel::AdversaryChoice);
        }
        let adv: Box<dyn Adversary<Token>> = if adversarial {
            Box::new(Meddler { ticks: 0 })
        } else {
            Box::new(SilentAdversary)
        };
        b.build(relay, adv)
    }

    #[test]
    fn sharded_matches_single_lane_passive() {
        for n in [1, 2, 5, 9] {
            for seed in [0, 3] {
                let reference = build(n, seed, &[], false).run();
                for lanes in [1, 2, 3, 16] {
                    let t = build(n, seed, &[], false).sharded(lanes).run();
                    assert_traces_equal(&reference, &t);
                }
            }
        }
    }

    #[test]
    fn sharded_matches_single_lane_active_adversary() {
        for n in [4, 7] {
            for seed in [1, 9] {
                let reference = build(n, seed, &[n - 1], true).run();
                for lanes in [1, 2, 3] {
                    let t = build(n, seed, &[n - 1], true).sharded(lanes).run();
                    assert_traces_equal(&reference, &t);
                }
            }
        }
    }

    #[test]
    fn sharded_matches_under_zero_lookahead() {
        // ũ = d degenerates the window to a single timestamp; the engine
        // must still advance one instant at a time and agree exactly.
        let link = LinkConfig::new(Dur::from_millis(1.0), Dur::from_micros(200.0))
            .with_u_tilde(Dur::from_millis(1.0));
        let mk = || {
            builder(5, 4)
                .link_config(link)
                .faulty([4])
                .delays(DelayModel::AdversaryChoice)
                .build(relay, Box::new(Meddler { ticks: 0 }))
        };
        let reference = mk().run();
        for lanes in [1, 2, 5] {
            assert_traces_equal(&reference, &mk().sharded(lanes).run());
        }
    }

    /// An adversary built to stress same-instant causality under ũ = d:
    /// every faulty delivery is answered with a *zero-delay* send (it
    /// arrives at the very instant being replayed) and a timer for "now";
    /// the timer sends again with zero delay. Regression test for the
    /// reconcile's queue poll: without it, these same-instant arrivals
    /// sat invisible in lane queues while later-seq adversary timers
    /// replayed first, swapping RNG draws and diverging from single-lane.
    struct ZeroDelayEcho;

    impl Adversary<Token> for ZeroDelayEcho {
        fn on_deliver(
            &mut self,
            to: NodeId,
            from: NodeId,
            _msg: &Token,
            api: &mut AdversaryApi<'_, Token>,
        ) {
            api.send_as_with_delay(to, from, Token(0), Dur::ZERO);
            api.set_timer(api.now(), from.index() as u64);
        }

        fn on_timer(&mut self, key: u64, api: &mut AdversaryApi<'_, Token>) {
            let target = NodeId::new(key as usize % api.n());
            for &c in api.corrupted() {
                if target != c {
                    api.send_as(c, target, Token(60));
                }
            }
        }
    }

    #[test]
    fn sharded_matches_zero_delay_sends_at_zero_lookahead() {
        // ũ = d: adversarial links may deliver instantaneously.
        let link = LinkConfig::new(Dur::from_millis(1.0), Dur::from_micros(200.0))
            .with_u_tilde(Dur::from_millis(1.0));
        for seed in [2, 11, 29] {
            let mk = || {
                builder(4, seed)
                    .link_config(link)
                    .faulty([3])
                    .build(relay, Box::new(ZeroDelayEcho))
            };
            let reference = mk().run();
            for lanes in [1, 2, 4] {
                assert_traces_equal(&reference, &mk().sharded(lanes).run());
            }
        }
    }

    #[test]
    fn sharded_respects_event_cap_exactly() {
        let mk = || builder(6, 2).max_events(40).build(relay, Box::new(SilentAdversary));
        let reference = mk().run();
        assert!(reference
            .violations
            .iter()
            .any(|v| v.contains("event cap exceeded")));
        for lanes in [1, 2, 4] {
            assert_traces_equal(&reference, &mk().sharded(lanes).run());
        }
    }

    #[test]
    fn sharded_respects_max_pulses_exactly() {
        let mk = || builder(6, 5).max_pulses(4).build(relay, Box::new(SilentAdversary));
        let reference = mk().run();
        for lanes in [2, 3, 6] {
            assert_traces_equal(&reference, &mk().sharded(lanes).run());
        }
    }

    #[test]
    fn uncapped_event_limit_does_not_stall() {
        // max_events = u64::MAX used to wrap the lane budget to zero,
        // starving every window and hanging the run.
        let mk = || {
            builder(4, 1)
                .max_events(u64::MAX)
                .max_pulses(2)
                .build(relay, Box::new(SilentAdversary))
        };
        let reference = mk().run();
        assert_traces_equal(&reference, &mk().sharded(2).run());
    }

    #[test]
    fn mailbox_conservation_holds() {
        let (_, stats) = build(8, 6, &[7], true).sharded(3).run_with_stats();
        assert!(stats.posted > 0);
        assert_eq!(stats.posted, stats.consumed + stats.pending);
    }

    /// The persistent worker pool (forced on, so the test is meaningful
    /// even on a single-CPU host) must produce the same trace as both the
    /// inline sharded path and the single-lane reference engine.
    #[test]
    fn worker_pool_matches_inline_execution() {
        for n in [5, 9] {
            for seed in [0, 7] {
                let reference = build(n, seed, &[n - 1], true).run();
                for lanes in [2, 3] {
                    let mut pooled = build(n, seed, &[n - 1], true).sharded(lanes);
                    pooled.set_parallel(true);
                    assert_traces_equal(&reference, &pooled.run());
                    let mut inline = build(n, seed, &[n - 1], true).sharded(lanes);
                    inline.set_parallel(false);
                    assert_traces_equal(&reference, &inline.run());
                }
            }
        }
    }

    #[test]
    fn worker_pool_conserves_mailboxes() {
        let mut sim = build(8, 6, &[7], true).sharded(3);
        sim.set_parallel(true);
        let (_, stats) = sim.run_with_stats();
        assert!(stats.posted > 0);
        assert_eq!(stats.posted, stats.consumed + stats.pending);
    }

    /// A handler panicking on a worker thread must panic the run on the
    /// reconcile thread (as the old scoped-thread join did), not hang it.
    struct PanicsAtRoundTwo {
        me: NodeId,
        rounds: u64,
    }

    impl Automaton for PanicsAtRoundTwo {
        type Msg = Token;

        fn on_init(&mut self, ctx: &mut dyn Context<Token>) {
            ctx.set_timer_at(LocalTime::from_millis(1.0));
        }

        fn on_message(&mut self, _f: NodeId, _m: Token, _ctx: &mut dyn Context<Token>) {}

        fn on_timer(&mut self, _t: TimerId, ctx: &mut dyn Context<Token>) {
            self.rounds += 1;
            assert!(
                !(self.me.index() == 0 && self.rounds == 2),
                "handler panicked on purpose"
            );
            ctx.set_timer_at(LocalTime::from_millis(1.0 + self.rounds as f64));
        }
    }

    #[test]
    #[should_panic(expected = "handler panicked on purpose")]
    fn worker_pool_propagates_handler_panics() {
        let mut sim = builder(4, 0)
            .build(
                |me| PanicsAtRoundTwo { me, rounds: 0 },
                Box::new(SilentAdversary),
            )
            .sharded(2);
        sim.set_parallel(true);
        let _ = sim.run();
    }

    /// Chaos injection (crash windows with in-window recovery, cuts,
    /// storms, rushing floods) must stay bit-identical across lane
    /// counts and both scheduling paths.
    #[test]
    fn sharded_matches_single_lane_under_chaos() {
        use std::sync::Arc;

        use crate::chaos::ChaosTimeline;

        let timeline = |n: usize| {
            let mut c = ChaosTimeline::new(n);
            // Recovery at 6 ms lands mid-run; node n-1 stays down. The
            // second window recovers within the d − ũ lookahead (0.8 ms),
            // exercising the provisional in-window timer re-push.
            c.crash(0, Time::from_millis(2.0), Some(Time::from_millis(6.0)));
            c.crash(1, Time::from_millis(1.9), Some(Time::from_millis(2.05)));
            c.crash(n - 1, Time::from_millis(9.0), None);
            let half = n / 2;
            let a: Vec<bool> = (0..n).map(|i| i < half).collect();
            let b: Vec<bool> = (0..n).map(|i| i >= half).collect();
            c.cut_link(a, b, Time::from_millis(3.0), Time::from_millis(5.0));
            c.storm(Time::from_millis(7.0), Time::from_millis(9.0));
            c.flood_window(Time::from_millis(11.0), Time::from_millis(13.0), 2, true);
            Arc::new(c)
        };
        for n in [4, 9] {
            for seed in [0, 5] {
                let mk = || {
                    builder(n, seed)
                        .faulty([n - 2])
                        .delays(DelayModel::AdversaryChoice)
                        .chaos(timeline(n))
                        .build(relay, Box::new(Meddler { ticks: 0 }))
                };
                let reference = mk().run();
                assert!(
                    reference.chaos_drops > 0,
                    "scenario must actually drop something"
                );
                for lanes in [1, 2, 3] {
                    for parallel in [false, true] {
                        let mut sim = mk().sharded(lanes);
                        sim.set_parallel(parallel);
                        assert_traces_equal(&reference, &sim.run());
                    }
                }
            }
        }
    }

    #[test]
    fn lanes_clamped_to_n() {
        let sim = build(3, 0, &[], false).sharded(64);
        assert_eq!(sim.lanes(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = build(3, 0, &[], false).sharded(0);
    }
}
