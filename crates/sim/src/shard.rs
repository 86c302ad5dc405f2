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
//!   its nodes' automatons, their timers, and a lane-local slab event
//!   queue (the engine's packed-`u128` 4-ary min-heap) holding exactly
//!   the events destined for its nodes.
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
//! * **Mailboxes.** Handlers executed inside a lane do not touch shared
//!   state; they append their effects (sends, broadcasts, timers, pulses,
//!   violations) to a per-lane mailbox tagged with the source event's
//!   `(at, seq)` key. After the window, a sequential *reconcile* merges
//!   the mailboxes in ascending key order and replays each effect exactly
//!   as the single-lane engine would have: drawing delay randomness,
//!   assigning global sequence numbers, invoking adversary callbacks,
//!   updating the signature-knowledge tracker, and routing each new event
//!   into the destination node's lane.
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
//! 3. *The reconcile replays the shared-state schedule exactly.* It
//!    consumes mailbox records in merged `(at, seq)` order — resolving a
//!    provisional timer's true number when its arming effect is replayed,
//!    which always precedes it — and performs pushes, delay draws,
//!    adversary callbacks, and trace writes in the same order and with
//!    the same values as the single-lane engine's event loop, including
//!    the early-stop conditions (pulse completion and the event cap),
//!    past which trailing lane work is discarded unobserved.
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
//! the per-lane ladder-queue spill and splice counters, which need not
//! equal the single global queue's (lane frontiers advance
//! independently). All three are performance diagnostics, excluded from
//! the determinism trace hash.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::iter::Peekable;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::vec::IntoIter;

use crossbeam::channel::{Receiver, Sender};
use crusader_crypto::{KnowledgeTracker, NodeId, RestrictedSigner, Signer, Verifier};
use crusader_time::{Dur, HardwareClock, Time};
use rand::rngs::SmallRng;

use crate::adversary::{AdvEffect, Adversary, AdversaryApi};
use crate::automaton::{Automaton, Context};
use crate::chaos::{ChaosTimeline, RunObserver};
use crate::engine::{Effect, NodeCtx, RunLimits, Sim};
use crate::event::{EventKey, EventKind, EventQueue, Payload, TimerId, TimerSlab};
use crate::network::{DelayModel, LinkConfig};
use crate::trace::Trace;

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

/// One effect recorded by a lane for the reconcile to replay in global
/// order. Mirrors [`Effect`], minus cancellations (lane-local, no global
/// side effects) and with timers split by whether they were provisionally
/// pushed in-window.
enum ReplayEffect<M> {
    Send { to: NodeId, msg: M },
    Broadcast { msg: M },
    /// Timer already provisionally pushed into the lane's queue; the
    /// reconcile assigns `pending[slot]` its true sequence number.
    TimerInWindow { slot: u32 },
    /// Timer firing beyond the window; the reconcile pushes it.
    TimerBeyond { node: NodeId, id: TimerId, fire_at: Time },
    Pulse { node: NodeId, index: u64 },
    Violation { node: NodeId, text: String },
}

/// What a lane did with one popped event.
enum RecordBody<M> {
    /// An honest node's handler ran; `delivery` notes whether the event
    /// was a message delivery (counted in the trace) or a timer. The
    /// handler's effects are the next `effects` entries of the lane's
    /// flat arena — an offset-free encoding, since records are replayed
    /// strictly in lane order. (A per-record `Vec` here would put one
    /// allocation per event back on the hot path, and worse: allocated on
    /// a lane thread, freed on the reconcile thread, which serializes
    /// lanes on the allocator.)
    Honest {
        node: NodeId,
        delivery: bool,
        effects: u32,
    },
    /// A delivery to a faulty node: the adversary sees it in reconcile.
    FaultyDeliver {
        from: NodeId,
        to: NodeId,
        msg: Payload<M>,
    },
    /// A cancelled (stale) timer pop: counted, nothing else. Also used
    /// for a crashed node's timer when the node never recovers — the
    /// single-lane engine likewise counts the pop and drops it.
    Stale,
    /// A delivery to a chaos-crashed node: the reconcile counts it as
    /// delivered *and* chaos-dropped, running no handler.
    ChaosDrop,
    /// A crashed node's timer deferred to a recovery instant inside the
    /// current window: the lane re-pushed it provisionally (same
    /// machinery as `ReplayEffect::TimerInWindow`); the reconcile
    /// assigns `pending[slot]` its true sequence number.
    ChaosTimerInWindow { slot: u32 },
    /// A crashed node's timer deferred past the window: the reconcile
    /// pushes it at the recovery instant with a true sequence number.
    ChaosTimerBeyond {
        node: NodeId,
        id: TimerId,
        resume: Time,
    },
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

/// Read-only engine state shared by every lane and the reconcile thread.
///
/// Owned (not borrowed) and handed to the worker pool behind one `Arc` at
/// spawn time: persistent worker threads outlive any stack frame of the
/// reconcile loop, so the per-window borrows the old scoped-thread
/// implementation relied on cannot work here. Everything inside is
/// immutable for the whole run.
struct EngineCtx {
    clocks: Vec<HardwareClock>,
    signers: Vec<Arc<dyn Signer>>,
    verifier: Arc<dyn Verifier>,
    faulty_mask: Vec<bool>,
    n: usize,
    lanes: usize,
    horizon: Time,
    /// Chaos fault-injection schedule. Lane threads may query it freely:
    /// every query is a pure function of the event time, so parallel
    /// lanes agree with the single-lane engine by construction.
    chaos: Option<Arc<ChaosTimeline>>,
}

/// One shard: the nodes it owns, their timers, and their event queue.
struct Lane<A: Automaton> {
    /// Automatons of the nodes assigned to this lane, indexed by
    /// `node.index() / lanes` (`None` for faulty nodes).
    nodes: Vec<Option<A>>,
    queue: EventQueue<A::Msg>,
    timers: TimerSlab,
    /// This window's mailbox, in lane pop order (= global order
    /// restricted to the lane; see the module docs).
    records: Vec<Record<A::Msg>>,
    /// Flat effect arena backing `records` (one growth curve per window
    /// instead of one allocation per event).
    arena: Vec<ReplayEffect<A::Msg>>,
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
    fn advance(&mut self, sh: &EngineCtx, window: Window, budget: usize) {
        while let Some(key) = self.queue.peek_key() {
            if !window.contains(key.at()) || key.at() > sh.horizon {
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
            let body = match event.kind {
                EventKind::Deliver { from, to, msg } => {
                    self.delivers_popped += 1;
                    // Mirror of the single-lane `deliver`: a chaos-crashed
                    // recipient loses the message before the faulty check.
                    if sh.chaos.as_deref().is_some_and(|c| c.down(to, at)) {
                        drop(msg);
                        RecordBody::ChaosDrop
                    } else if sh.faulty_mask[to.index()] {
                        RecordBody::FaultyDeliver { from, to, msg }
                    } else {
                        let msg = msg.into_owned();
                        let effects = self.run_handler(sh, to, at, Some(window), |node, ctx| {
                            node.on_message(from, msg, ctx);
                        });
                        RecordBody::Honest {
                            node: to,
                            delivery: true,
                            effects,
                        }
                    }
                }
                EventKind::Timer { node, id } => {
                    // Mirror of the single-lane run loop: a crashed node's
                    // timer is deferred to its recovery instant *before*
                    // the slab fire (so a later cancel still matches), or
                    // dropped like a stale pop if it never recovers. An
                    // in-window recovery re-pushes provisionally, exactly
                    // like an in-window `SetTimer`.
                    if sh.chaos.as_deref().is_some_and(|c| c.down(node, at)) {
                        let chaos = sh.chaos.as_deref().expect("down implies timeline");
                        match chaos.resume_at(node, at) {
                            None => RecordBody::Stale,
                            Some(resume) if window.contains(resume) && resume <= sh.horizon => {
                                let slot = self.provisional;
                                self.provisional += 1;
                                self.queue.push_with_seq(
                                    resume,
                                    PROVISIONAL_BASE + u64::from(slot),
                                    EventKind::Timer { node, id },
                                );
                                RecordBody::ChaosTimerInWindow { slot }
                            }
                            Some(resume) => RecordBody::ChaosTimerBeyond { node, id, resume },
                        }
                    } else if !self.timers.fire(id) || sh.faulty_mask[node.index()] {
                        RecordBody::Stale
                    } else {
                        let effects = self.run_handler(sh, node, at, Some(window), |n, ctx| {
                            n.on_timer(id, ctx);
                        });
                        RecordBody::Honest {
                            node,
                            delivery: false,
                            effects,
                        }
                    }
                }
                EventKind::Recover { node } => {
                    // Mirror of the single-lane arm: a later crash window
                    // still covering this instant makes the event a no-op
                    // (counted like any pop, handled by its own Recover).
                    if sh.chaos.as_deref().is_some_and(|c| c.down(node, at)) {
                        RecordBody::Stale
                    } else {
                        let effects = self.run_handler(sh, node, at, Some(window), |n, ctx| {
                            n.on_recover(ctx);
                        });
                        RecordBody::Honest {
                            node,
                            delivery: false,
                            effects,
                        }
                    }
                }
                EventKind::AdvTimer { .. } => {
                    unreachable!("adversary timers never enter lane queues")
                }
            };
            self.records.push(Record { at, seq, body });
        }
        // Pausing at the window boundary: hand the run's unpopped tail
        // back to the ladder, so the reconcile's upcoming push storm
        // lands in O(1) buckets instead of splicing into a claimed run.
        self.queue.relax();
    }

    /// Runs `f` against node `v` at real time `now` and converts the
    /// effects into mailbox form, provisionally pushing timers that fire
    /// inside `window` (pass `None` during init, where the reconcile is
    /// inline and every timer is pushed with its true sequence number).
    fn run_handler<F>(
        &mut self,
        sh: &EngineCtx,
        v: NodeId,
        now: Time,
        window: Option<Window>,
        f: F,
    ) -> u32
    where
        F: FnOnce(&mut A, &mut dyn Context<A::Msg>),
    {
        let mut effects = std::mem::take(&mut self.effects);
        debug_assert!(effects.is_empty(), "pooled lane buffer not drained");
        let now_local = sh.clocks[v.index()].read(now);
        {
            let node = self.nodes[v.index() / sh.lanes]
                .as_mut()
                .expect("honest node present");
            let mut ctx = NodeCtx {
                me: v,
                n: sh.n,
                now_local,
                signer: &*sh.signers[v.index()],
                verifier: &*sh.verifier,
                timers: &mut self.timers,
                effects: &mut effects,
            };
            f(node, &mut ctx);
        }
        let before = self.arena.len();
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => self.arena.push(ReplayEffect::Send { to, msg }),
                Effect::Broadcast { msg } => self.arena.push(ReplayEffect::Broadcast { msg }),
                Effect::SetTimer { id, at } => {
                    // Same clamp as the single-lane engine: a timer armed
                    // at or before the current local time fires now.
                    let fire_at = if at <= now_local {
                        now
                    } else {
                        sh.clocks[v.index()].when(at)
                    };
                    match window {
                        Some(w) if w.contains(fire_at) && fire_at <= sh.horizon => {
                            let slot = self.provisional;
                            self.provisional += 1;
                            self.queue.push_with_seq(
                                fire_at,
                                PROVISIONAL_BASE + u64::from(slot),
                                EventKind::Timer { node: v, id },
                            );
                            self.arena.push(ReplayEffect::TimerInWindow { slot });
                        }
                        _ => self.arena.push(ReplayEffect::TimerBeyond {
                            node: v,
                            id,
                            fire_at,
                        }),
                    }
                }
                Effect::CancelTimer { id } => {
                    // Lane-local, order-insensitive across lanes (a node
                    // only ever cancels its own timers): applied here so
                    // later in-window pops of the same lane observe it.
                    self.timers.cancel(id);
                }
                Effect::Pulse { index } => self.arena.push(ReplayEffect::Pulse { node: v, index }),
                Effect::Violation(text) => {
                    self.arena.push(ReplayEffect::Violation { node: v, text });
                }
            }
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
    n: usize,
    faulty: BTreeSet<NodeId>,
    adversary_passive: bool,
    honest: Vec<NodeId>,
    link: LinkConfig,
    delay_model: DelayModel,
    /// Immutable shared state (clocks, signers, verifier, fault bitmap),
    /// `Arc`ed once so the persistent worker threads can hold it for the
    /// whole run.
    cx: Arc<EngineCtx>,
    adv_signer: RestrictedSigner,
    knowledge: KnowledgeTracker,
    adversary: Box<dyn Adversary<A::Msg>>,
    rng: SmallRng,
    limits: RunLimits,
    trace: Trace,
    now: Time,
    lanes: Vec<Lane<A>>,
    /// The conservative window length `d − ũ` (minimum delay of any
    /// link): nothing sent inside a window can arrive inside it.
    lookahead: Dur,
    /// Global sequence counter; all true sequence numbers come from here.
    next_seq: u64,
    /// Adversary real-time timers, merged into the reconcile by key
    /// (adversary callbacks only ever run in the sequential reconcile).
    adv_queue: BinaryHeap<Reverse<(EventKey, u64)>>,
    /// Pooled adversary effect buffer.
    adv_effects: Vec<AdvEffect<A::Msg>>,
    pulse_recorded: bool,
    /// Continuous pulse/violation observer, invoked only from the
    /// sequential reconcile (same ordered stream as single-lane).
    observer: Option<Arc<dyn RunObserver>>,
    posted: u64,
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
    fn spawn(cx: &Arc<EngineCtx>, lanes: usize) -> Self {
        let (done_tx, done_rx) = crossbeam::channel::unbounded();
        let mut jobs = Vec::with_capacity(lanes);
        let handles = (0..lanes)
            .map(|index| {
                let (job_tx, job_rx) = crossbeam::channel::unbounded::<Job<A>>();
                jobs.push(job_tx);
                let cx = Arc::clone(cx);
                let done = done_tx.clone();
                std::thread::spawn(move || {
                    while let Ok(job) = job_rx.recv() {
                        let Job {
                            mut lane,
                            window,
                            budget,
                        } = job;
                        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            lane.advance(&cx, window, budget);
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
        let lanes = lanes.min(sim.n);
        let mut nodes = sim.nodes;
        let lane_states = (0..lanes)
            .map(|l| Lane {
                nodes: (l..sim.n).step_by(lanes).map(|i| nodes[i].take()).collect(),
                queue: EventQueue::with_delay_hint(sim.link.d),
                timers: TimerSlab::new(),
                records: Vec::new(),
                arena: Vec::new(),
                provisional: 0,
                effects: Vec::new(),
                delivers_popped: 0,
            })
            .collect();
        ShardedSim {
            n: sim.n,
            faulty: sim.faulty,
            adversary_passive: sim.adversary_passive,
            honest: sim.honest,
            link: sim.link,
            delay_model: sim.delay_model,
            cx: Arc::new(EngineCtx {
                clocks: sim.clocks,
                signers: sim.signers,
                verifier: sim.verifier,
                faulty_mask: sim.faulty_mask,
                n: sim.n,
                lanes,
                horizon: sim.limits.horizon,
                chaos: sim.chaos,
            }),
            adv_signer: sim.adv_signer,
            knowledge: sim.knowledge,
            adversary: sim.adversary,
            rng: sim.rng,
            limits: sim.limits,
            trace: sim.trace,
            now: Time::ZERO,
            lanes: lane_states,
            lookahead: sim.link.d - sim.link.u_tilde,
            next_seq: 0,
            adv_queue: BinaryHeap::new(),
            adv_effects: Vec::new(),
            pulse_recorded: false,
            observer: sim.observer,
            posted: 0,
            parallel: std::thread::available_parallelism().is_ok_and(|p| p.get() > 1),
            pool: None,
        }
    }

    /// Number of lanes (after clamping to `n`).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes.len()
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
        self.init();
        while let Some(start) = self.global_min_key() {
            if start.at() > self.limits.horizon {
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
        self.trace.finished_at = self.now;
        self.trace.timer_slots_high_water = self
            .lanes
            .iter()
            .map(|l| l.timers.high_water() as u64)
            .sum();
        self.trace.queue_spill_count = self.lanes.iter().map(|l| l.queue.spill_count()).sum();
        self.trace.queue_splice_count = self.lanes.iter().map(|l| l.queue.splice_count()).sum();
        let stats = MailboxStats {
            posted: self.posted,
            consumed: self.lanes.iter().map(|l| l.delivers_popped).sum(),
            pending: self
                .lanes
                .iter()
                .map(|l| l.queue.pending_deliveries() as u64)
                .sum(),
        };
        (self.trace, stats)
    }

    /// The earliest pending `(at, seq)` key across lanes and adversary
    /// timers — the next window's start. (`&mut`: peeking may lazily
    /// claim a lane queue's next ladder bucket.)
    fn global_min_key(&mut self) -> Option<EventKey> {
        let lane_min = self
            .lanes
            .iter_mut()
            .filter_map(|l| l.queue.peek_key())
            .min();
        let adv_min = self.adv_queue.peek().map(|Reverse((key, _))| *key);
        match (lane_min, adv_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Replicates the single-lane init: honest `on_init` in ascending
    /// node order, then the adversary's, applying effects inline (the
    /// reconcile is trivially sequential here).
    fn init(&mut self) {
        debug_assert_eq!(self.now, Time::ZERO);
        self.schedule_recoveries();
        for v in self.honest.clone() {
            self.run_handler_inline(v, |node, ctx| node.on_init(ctx));
        }
        self.with_adversary(|adv, api| adv.on_init(api));
    }

    /// Mirror of `Sim::schedule_recoveries`: one [`EventKind::Recover`]
    /// per honest crash window that ends, pushed before any other event
    /// in the identical order — so the events carry the identical
    /// sequence numbers as the single-lane engine's, and pop before any
    /// timer deferred to the same recovery instant.
    fn schedule_recoveries(&mut self) {
        let Some(chaos) = self.cx.chaos.clone() else {
            return;
        };
        for (at, node, down) in chaos.crash_transitions() {
            if down || self.cx.faulty_mask[node] {
                continue;
            }
            let node = NodeId::new(node);
            let seq = self.alloc_seq();
            self.lane_mut(node)
                .queue
                .push_with_seq(at, seq, EventKind::Recover { node });
        }
    }

    /// Advances every lane with window work — through the persistent
    /// worker pool when more than one lane has any (and the host or an
    /// override says parallelism pays), inline otherwise.
    fn lane_phase(&mut self, window: Window) {
        // Saturating: an effectively-uncapped run (`max_events(u64::MAX)`)
        // must yield an unbounded budget, not a wrapped-to-zero one.
        let budget = usize::try_from(
            (self.limits.max_events - self.trace.events_processed).saturating_add(1),
        )
        .unwrap_or(usize::MAX);
        let horizon = self.cx.horizon;
        let work: Vec<usize> = self
            .lanes
            .iter_mut()
            .enumerate()
            .filter_map(|(i, l)| {
                l.queue
                    .peek_key()
                    .is_some_and(|k| window.contains(k.at()) && k.at() <= horizon)
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
                .get_or_insert_with(|| WorkerPool::spawn(&self.cx, self.lanes.len()));
            for &l in &work {
                let lane = std::mem::replace(&mut self.lanes[l], Lane::vacant());
                pool.jobs[l]
                    .send(Job {
                        lane,
                        window,
                        budget,
                    })
                    .unwrap_or_else(|_| unreachable!("lane worker exited while pool is live"));
            }
            for _ in 0..work.len() {
                let (index, result) = self
                    .pool
                    .as_ref()
                    .expect("pool is live")
                    .done_rx
                    .recv()
                    .expect("lane workers hold the done channel open");
                match result {
                    Ok(lane) => self.lanes[index] = lane,
                    // A handler panicked on a worker: surface it on the
                    // reconcile thread, as the scoped join used to.
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        } else {
            for l in work {
                self.lanes[l].advance(&self.cx, window, budget);
            }
        }
    }

    /// The sequential merge: replays this window's mailboxes (and any
    /// in-window adversary timers) in ascending `(at, seq)` order.
    fn reconcile(&mut self, window: Window) -> Flow {
        let mut records: Vec<Peekable<IntoIter<Record<A::Msg>>>> = self
            .lanes
            .iter_mut()
            .map(|l| std::mem::take(&mut l.records).into_iter().peekable())
            .collect();
        let mut arenas: Vec<IntoIter<ReplayEffect<A::Msg>>> = self
            .lanes
            .iter_mut()
            .map(|l| std::mem::take(&mut l.arena).into_iter())
            .collect();
        let mut pending: Vec<Vec<u64>> = self
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
        loop {
            let mut best: Option<(EventKey, Src)> = None;
            for (l, key) in heads.iter().enumerate() {
                if let Some(key) = *key {
                    if best.as_ref().is_none_or(|(k, _)| key < *k) {
                        best = Some((key, Src::Lane(l)));
                    }
                }
            }
            if let Some(Reverse((key, adv_key))) = self.adv_queue.peek() {
                if window.contains(key.at())
                    && key.at() <= self.limits.horizon
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
                let horizon = self.limits.horizon;
                for (l, lane) in self.lanes.iter_mut().enumerate() {
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
            debug_assert!(key.at() >= self.now, "time went backwards");
            self.now = key.at();
            self.trace.events_processed += 1;
            if self.trace.events_processed > self.limits.max_events {
                if let Some(obs) = &self.observer {
                    obs.on_violation(None, "event cap exceeded", self.now);
                }
                self.trace.violations.push("event cap exceeded".to_owned());
                return Flow::Stop;
            }
            match src {
                Src::Adv(adv_key) => {
                    self.adv_queue.pop();
                    self.with_adversary(|adv, api| adv.on_timer(adv_key, api));
                }
                Src::Queue(l) => self.process_queue_event_inline(l),
                Src::Lane(l) => {
                    let rec = records[l].next().expect("peeked record present");
                    match rec.body {
                        RecordBody::Stale => {}
                        RecordBody::ChaosDrop => {
                            self.trace.messages_delivered += 1;
                            self.trace.chaos_drops += 1;
                        }
                        RecordBody::ChaosTimerInWindow { slot } => {
                            pending[l][slot as usize] = self.alloc_seq();
                        }
                        RecordBody::ChaosTimerBeyond { node, id, resume } => {
                            let seq = self.alloc_seq();
                            self.lane_mut(node).queue.push_with_seq(
                                resume,
                                seq,
                                EventKind::Timer { node, id },
                            );
                        }
                        RecordBody::FaultyDeliver { from, to, msg } => {
                            self.trace.messages_delivered += 1;
                            if !self.adversary_passive {
                                if msg.needs_learning() {
                                    self.knowledge.learn_all(msg.as_ref(), self.now);
                                }
                                let msg = msg.as_ref();
                                self.with_adversary(|adv, api| {
                                    adv.on_deliver(to, from, msg, api);
                                });
                            }
                        }
                        RecordBody::Honest {
                            node,
                            delivery,
                            effects,
                        } => {
                            if delivery {
                                self.trace.messages_delivered += 1;
                            }
                            let effects = arenas[l].by_ref().take(effects as usize);
                            self.replay_honest_effects(node, effects, &mut pending[l]);
                        }
                    }
                    heads[l] = records[l].peek().map(|r| resolve(r, &pending[l]));
                }
            }
            if self.pulse_recorded {
                self.pulse_recorded = false;
                if self.done_by_pulses() {
                    return Flow::Stop;
                }
            }
        }
    }

    /// Replays one honest event's effects in order, exactly as
    /// `Sim::apply_node_effects` would (same RNG draws, same sequence
    /// numbers, same adversary callbacks).
    fn replay_honest_effects(
        &mut self,
        from: NodeId,
        effects: impl Iterator<Item = ReplayEffect<A::Msg>>,
        pending: &mut [u64],
    ) {
        for effect in effects {
            match effect {
                ReplayEffect::Send { to, msg } => {
                    self.schedule_honest_send(from, to, Payload::Owned(msg));
                }
                ReplayEffect::Broadcast { msg } => {
                    // One shared payload behind an `Arc`, fanned out to
                    // every node — identical to `Sim::apply_node_effects`.
                    let shared = Payload::shared(msg);
                    for to in NodeId::all(self.n) {
                        self.schedule_honest_send(from, to, shared.clone());
                    }
                }
                ReplayEffect::TimerInWindow { slot } => {
                    pending[slot as usize] = self.alloc_seq();
                }
                ReplayEffect::TimerBeyond { node, id, fire_at } => {
                    let seq = self.alloc_seq();
                    self.lane_mut(node)
                        .queue
                        .push_with_seq(fire_at, seq, EventKind::Timer { node, id });
                }
                ReplayEffect::Pulse { node, index } => {
                    let before = self.trace.violations.len();
                    let jump_ok = self
                        .cx
                        .chaos
                        .as_deref()
                        .is_some_and(|c| c.was_ever_down(node));
                    self.trace.record_pulse(node, index, self.now, jump_ok);
                    if let Some(obs) = &self.observer {
                        // `record_pulse` may itself flag an out-of-order
                        // pulse; surface that to the observer too (same
                        // order as the single-lane engine).
                        for text in &self.trace.violations[before..] {
                            obs.on_violation(Some(node), text, self.now);
                        }
                        obs.on_pulse(node, index, self.now);
                    }
                    self.pulse_recorded = true;
                }
                ReplayEffect::Violation { node, text } => {
                    let text = format!("{node}: {text}");
                    if let Some(obs) = &self.observer {
                        obs.on_violation(Some(node), &text, self.now);
                    }
                    self.trace.violations.push(text);
                }
            }
        }
    }

    /// Pops and fully processes lane `l`'s head event on the reconcile
    /// thread — handler and effects inline, exactly like the single-lane
    /// loop. Only reached from zero-lookahead windows (see the merge),
    /// where same-instant arrivals must interleave with mailbox records
    /// and adversary timers in `(at, seq)` order. Timers the handler arms
    /// are pushed with true sequence numbers (init-style), so a clamped
    /// same-instant timer re-enters this merge via the queue poll.
    fn process_queue_event_inline(&mut self, l: usize) {
        let (_, event) = self.lanes[l]
            .queue
            .pop_keyed()
            .expect("peeked queue is non-empty");
        match event.kind {
            EventKind::Deliver { from, to, msg } => {
                self.lanes[l].delivers_popped += 1;
                self.trace.messages_delivered += 1;
                if self
                    .cx
                    .chaos
                    .as_deref()
                    .is_some_and(|c| c.down(to, self.now))
                {
                    self.trace.chaos_drops += 1;
                } else if self.cx.faulty_mask[to.index()] {
                    if !self.adversary_passive {
                        if msg.needs_learning() {
                            self.knowledge.learn_all(msg.as_ref(), self.now);
                        }
                        let msg = msg.as_ref();
                        self.with_adversary(|adv, api| adv.on_deliver(to, from, msg, api));
                    }
                } else {
                    let msg = msg.into_owned();
                    self.run_handler_inline(to, |node, ctx| node.on_message(from, msg, ctx));
                }
            }
            EventKind::Timer { node, id } => {
                if self
                    .cx
                    .chaos
                    .as_deref()
                    .is_some_and(|c| c.down(node, self.now))
                {
                    // Inline = single-lane style: defer with a true
                    // sequence number (recovery is always after `now`,
                    // hence outside this single-instant window).
                    let resume = self
                        .cx
                        .chaos
                        .as_deref()
                        .and_then(|c| c.resume_at(node, self.now));
                    if let Some(resume) = resume {
                        let seq = self.alloc_seq();
                        self.lane_mut(node).queue.push_with_seq(
                            resume,
                            seq,
                            EventKind::Timer { node, id },
                        );
                    }
                } else if self.lanes[l].timers.fire(id) && !self.cx.faulty_mask[node.index()] {
                    self.run_handler_inline(node, |n, ctx| n.on_timer(id, ctx));
                }
            }
            EventKind::Recover { node } => {
                if !self
                    .cx
                    .chaos
                    .as_deref()
                    .is_some_and(|c| c.down(node, self.now))
                {
                    self.run_handler_inline(node, |n, ctx| n.on_recover(ctx));
                }
            }
            EventKind::AdvTimer { .. } => {
                unreachable!("adversary timers never enter lane queues")
            }
        }
    }

    /// Runs an honest handler on the reconcile thread at the current
    /// replay time and applies its effects immediately (used by init and
    /// by zero-lookahead inline processing; timers get true sequence
    /// numbers, never provisional ones).
    fn run_handler_inline<F>(&mut self, v: NodeId, f: F)
    where
        F: FnOnce(&mut A, &mut dyn Context<A::Msg>),
    {
        let lane = v.index() % self.lanes.len();
        let count = self.lanes[lane].run_handler(&self.cx, v, self.now, None, f);
        let arena = std::mem::take(&mut self.lanes[lane].arena);
        debug_assert_eq!(arena.len(), count as usize);
        self.replay_honest_effects(v, arena.into_iter(), &mut []);
    }

    /// Mirrors `Sim::schedule_honest_send` in the replay: draw the delay,
    /// notify the adversary, then route the delivery into the destination
    /// node's lane — in that exact order, so RNG consumption and sequence
    /// numbers match the single-lane engine step for step.
    fn schedule_honest_send(&mut self, from: NodeId, to: NodeId, msg: Payload<A::Msg>) {
        // Chaos hooks in the exact single-lane order (cut, storm, flood);
        // see `Sim::schedule_honest_send` — any divergence would
        // desynchronize the shared RNG stream.
        if self
            .cx
            .chaos
            .as_deref()
            .is_some_and(|c| c.cut(from, to, self.now))
        {
            self.trace.chaos_drops += 1;
            return;
        }
        let bounds = self.link.bounds_masked(
            self.cx.faulty_mask[from.index()],
            self.cx.faulty_mask[to.index()],
        );
        let storming = self
            .cx
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
        let flood = self.cx.chaos.as_deref().and_then(|c| c.flood(self.now));
        if let Some(spec) = flood {
            // Duplicates first, then the original — the single-lane
            // engine's push (and therefore sequence) order.
            for _ in 0..spec.copies {
                let copy = msg.clone();
                let copy_delay = if spec.rush {
                    bounds.0
                } else {
                    DelayModel::Random.draw(from, to, bounds, &mut self.rng)
                };
                self.trace.chaos_duplicates += 1;
                let seq = self.alloc_seq();
                self.posted += 1;
                let at = self.now + copy_delay;
                self.lane_mut(to)
                    .queue
                    .push_with_seq(at, seq, EventKind::Deliver { from, to, msg: copy });
            }
        }
        let seq = self.alloc_seq();
        self.posted += 1;
        let at = self.now + delay;
        self.lane_mut(to)
            .queue
            .push_with_seq(at, seq, EventKind::Deliver { from, to, msg });
    }

    /// Mirrors `Sim::with_adversary`: pooled effect buffer, the same
    /// passive fast path, effects applied after the callback returns.
    fn with_adversary<F>(&mut self, f: F)
    where
        F: FnOnce(&mut dyn Adversary<A::Msg>, &mut AdversaryApi<'_, A::Msg>),
    {
        if self.adversary_passive {
            return;
        }
        let mut effects = std::mem::take(&mut self.adv_effects);
        debug_assert!(effects.is_empty(), "pooled adversary buffer not drained");
        {
            let mut api = AdversaryApi {
                now: self.now,
                n: self.n,
                corrupted: &self.faulty,
                signer: &self.adv_signer,
                verifier: &*self.cx.verifier,
                clocks: &self.cx.clocks,
                knowledge: &self.knowledge,
                effects: &mut effects,
            };
            f(&mut *self.adversary, &mut api);
        }
        self.apply_adv_effects(&mut effects);
        effects.clear();
        self.adv_effects = effects;
    }

    /// Mirrors `Sim::apply_adv_effects`: the knowledge gate, delay
    /// validation, and pushes happen in the recorded order. Adversary
    /// timers go onto the adversary queue with a freshly allocated key;
    /// ones landing inside the current window are picked up by the
    /// ongoing reconcile merge.
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
                    // Mirror of the single-lane engine: a cut link fails
                    // adversarial traffic before the forgery gate.
                    if self
                        .cx
                        .chaos
                        .as_deref()
                        .is_some_and(|c| c.cut(from, to, self.now))
                    {
                        self.trace.chaos_drops += 1;
                        continue;
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
                    let bounds = self.link.bounds_masked(
                        self.cx.faulty_mask[from.index()],
                        self.cx.faulty_mask[to.index()],
                    );
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
                    let seq = self.alloc_seq();
                    self.posted += 1;
                    let at = self.now + delay;
                    self.lane_mut(to).queue.push_with_seq(
                        at,
                        seq,
                        EventKind::Deliver {
                            from,
                            to,
                            msg: Payload::Owned(msg),
                        },
                    );
                }
                AdvEffect::SetTimer { at, key } => {
                    let at = at.max(self.now);
                    let seq = self.alloc_seq();
                    self.adv_queue.push(Reverse((EventKey::new(at, seq), key)));
                }
            }
        }
    }

    fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        assert!(
            seq < PROVISIONAL_BASE,
            "sharded runs cap at 2^35 scheduled events"
        );
        self.next_seq += 1;
        seq
    }

    fn lane_mut(&mut self, node: NodeId) -> &mut Lane<A> {
        let l = node.index() % self.lanes.len();
        &mut self.lanes[l]
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
            for &c in api.corrupted().clone().iter() {
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
            if (from.index() + to.index()) % 3 == 0 {
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
            for &c in api.corrupted().clone().iter() {
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
