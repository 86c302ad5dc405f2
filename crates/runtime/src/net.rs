//! The reactor's delay-injecting network thread, which also keeps its
//! timer wake-ups.
//!
//! Receives send/broadcast commands from node handlers, holds each
//! message for a random flight time inside `[d − u, d]` (drawn per
//! *destination*, like the simulator's random delay model), then hands
//! it to the reactor through a [`DeliverySink`]: an inbox hand-off plus
//! wake-up per destination.
//!
//! # The tick grid
//!
//! The thread acts on one grid, for messages and wake-ups alike: ticks of
//! [`tick_ns`](crate::tick_ns) nanoseconds (`min(u, d)/64`, clamped to
//! `[50 µs, 1 ms]`), counted from the instant the thread was set up. A
//! message's flight is drawn uniformly, in whole nanoseconds, from
//! `[d − u, max(d − u, d − tick)]`, and its delivery instant is rounded
//! **up** to the grid. So a message is never handed over before
//! `sent_at + (d − u)`, and whenever `u ≥ tick` it is never scheduled
//! after `sent_at + d`: the model's window holds, its top tick's worth
//! folded into the rounding. For `u < tick` — a `u` below 50 µs, which
//! includes the `u = 0` links some tests use — the window is narrower
//! than the grid and the rounding overshoots `sent_at + d` by less than
//! one tick. That is the kernel's own timer slack, which no sleeping
//! thread on this host undercuts, and the crate docs fold it into the
//! same "the host inflates `u`" caveat as a wake-up's tick.
//!
//! A CPS round is `n³` deliveries spread over `2u`: at their drawn
//! instants they come due a microsecond apart, and every one of them
//! that the thread sleeps towards costs a timer slack, a preemption and
//! a wake-up of the parked worker. On the grid the loop sleeps until
//! the next *occupied* tick and hands the whole tick over, one hand-off
//! per destination: at most `2u/tick + 2` sweeps a round however many
//! messages it holds.
//!
//! # The time queue
//!
//! Everything the thread waits for — a message in flight, a node's timer
//! wake-up, a chaos control event — is one [`Due`] in one
//! [`TimerWheel`](crate::wheel::TimerWheel) on the grid, popped in strict
//! `(tick, arrival)` order; the loop sleeps until its one next deadline.
//! Control events are queued at set-up, before any command, so a message
//! due in the tick of a `Freeze` lands after it.
//!
//! # Batches in both directions
//!
//! At a million messages a second what a message costs is the channel
//! operation around it, not the queue push:
//!
//! * **In.** A worker quantum's sends and broadcasts arrive as *one*
//!   [`NetCommand::Batch`] (a lone message still travels as a bare
//!   `Send`/`Broadcast`, which needs no buffer). Per wake-up the loop
//!   ingests every command already queued, up to [`TURN_BUDGET`]
//!   in-flight entries — bounded, so a command storm cannot starve a
//!   delivery that is already due. The emptied buffers go back to the
//!   senders through a small free list ([`NetLink`]), so the steady
//!   state allocates nothing — and frees nothing across threads, which
//!   is what keeps the allocator's arenas from growing.
//! * **Out.** What is due in one sweep (again at most [`TURN_BUDGET`]
//!   messages, so a burst coming due cannot starve the ingest either; a
//!   tick that holds more is handed over across sweeps, in arrival
//!   order) is staged per destination and handed over with one
//!   [`DeliverySink::deliver_batch`] per destination: on the reactor one
//!   inbox lock, one append and one `schedule`, however many messages
//!   the sweep held for that node.
//!
//! Every command goes through one enqueue routine, so the chaos checks
//! (link cut per `(from, to)`, storm and flood per send instant) and the
//! per-destination delay draw are per message exactly as they were when
//! every message was its own command. A storm pins a message to the top
//! of the drawn range and a rushed flood copy to its bottom, so both
//! stay inside the window like any other draw. What a batch shares is
//! its **send instant**: `sent_at` is read once, when the net thread
//! dequeues the command, so all sends of one quantum start their flight
//! together (and a little later than `ctx.send` was called — by the rest
//! of the quantum plus the queueing). The read is never earlier than the
//! handler's call, so no message is delivered before its real send
//! instant plus `d − u`. What a tick shares is its **delivery instant**:
//! each destination gets its messages in `(tick, arrival)` order.
//!
//! Broadcasts travel from the sender to this thread as **one** value
//! and are held behind one `Arc` while in flight; the per-destination
//! clone happens only at delivery time. At reactor scale this matters
//! twice: a 2048-node broadcast is one channel send instead of 2048, and
//! the queue holds small entries sharing a payload instead of 2048 deep
//! copies.
//!
//! # Timer wake-ups
//!
//! Each node's earliest timer deadline arrives as a [`NetCommand::Wake`],
//! which cancels the node's previous wake-up and queues the new one. A
//! sweep hands its due wake-ups to [`DeliverySink::wake`] after the
//! events it staged, so a woken node finds every delivery due by then in
//! its inbox. A wake-up counts as one entry against the ingest budget,
//! and not as a command in `net_commands`.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use crusader_crypto::NodeId;
use crusader_sim::{ChaosTimeline, FloodSpec};
use crusader_time::{Dur, Time};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::node::Outbox;
use crate::supervise::Counters;
use crate::wheel::{TimerWheel, WheelKey};
use crate::{tick_ns, whole_nanos};

/// What a node receives from the runtime.
#[derive(Debug)]
pub enum NodeEvent<M> {
    /// A message finished its (injected) flight.
    Deliver {
        /// Authenticated sender.
        from: NodeId,
        /// Payload.
        msg: M,
    },
    /// Chaos injection: the node crashes (drops deliveries, fires no
    /// timers) until [`NodeEvent::Thaw`].
    Freeze,
    /// Chaos injection: the node recovers; its pending timers are
    /// cancelled and its recovery hook runs.
    Thaw,
    /// Chaos injection: the node's next handler invocation panics (a
    /// supervision drill — exercises containment and worker respawn).
    /// Ignored while the node is frozen.
    PanicInject,
    /// Orderly shutdown request from the harness.
    Shutdown,
}

/// How the network hands events to the reactor.
///
/// The network thread is generic over it so that the tests below can
/// record what a sweep hands over; the reactor's cell sink is the one
/// implementation outside them. Carries whole [`NodeEvent`]s (not just
/// messages) so the chaos injector can emit `Freeze`/`Thaw` control
/// events through the same path.
pub(crate) trait DeliverySink<M>: Send + 'static {
    fn deliver(&mut self, to: NodeId, event: NodeEvent<M>);

    /// Hands over everything one delivery sweep holds for `to`, in
    /// delivery order, and leaves `events` empty (its capacity stays
    /// with the network, which refills it next sweep). The default
    /// forwards event by event; a sink whose hand-off has a fixed cost —
    /// a lock, a wake-up — overrides it to pay that cost once.
    fn deliver_batch(&mut self, to: NodeId, events: &mut Vec<NodeEvent<M>>) {
        for event in events.drain(..) {
            self.deliver(to, event);
        }
    }

    /// The wake-up `node` registered with [`NetCommand::Wake`] came due.
    /// The default ignores it: the tests' sinks register none.
    fn wake(&mut self, _node: NodeId) {}
}

/// Chaos injection context for the network thread: the fault timeline
/// plus the run's epoch, the host instant of scenario time zero.
pub(crate) struct NetChaos {
    pub timeline: Arc<ChaosTimeline>,
    pub epoch: Instant,
}

impl NetChaos {
    /// The timeline's control events — crash transitions and panic
    /// drills — as `(when, entry)` in time order; a stable sort
    /// keeps each instant's transitions ahead of its drills.
    fn control_events<M>(&self) -> Vec<(Time, Due<M>)> {
        let transitions = self.timeline.crash_transitions().into_iter();
        let drills = self.timeline.panic_schedule().into_iter();
        let mut events: Vec<_> = transitions
            .map(|(t, node, down)| {
                let node = NodeId::new(node);
                let due = if down {
                    Due::Freeze(node)
                } else {
                    Due::Thaw(node)
                };
                (t, due)
            })
            .chain(drills.map(|(t, node)| (t, Due::Panic(NodeId::new(node)))))
            .collect();
        events.sort_by(|x, y| x.0.partial_cmp(&y.0).expect("finite times"));
        events
    }
}

/// An in-flight payload: owned for unicasts, `Arc`-shared for
/// broadcasts and flood copies (cloned per destination only at
/// delivery).
#[derive(Clone)]
enum Payload<M> {
    One(M),
    Shared(Arc<M>),
}

impl<M: Clone> Payload<M> {
    fn into_msg(self) -> M {
        match self {
            Payload::One(msg) => msg,
            Payload::Shared(arc) => (*arc).clone(),
        }
    }

    fn into_shared(self) -> Arc<M> {
        match self {
            Payload::One(msg) => Arc::new(msg),
            Payload::Shared(arc) => arc,
        }
    }
}

/// What the time queue holds (module docs, *The time queue*).
#[derive(Clone)]
enum Due<M> {
    /// A message in flight.
    Message {
        from: NodeId,
        to: NodeId,
        payload: Payload<M>,
    },
    /// A node's timer wake-up.
    Wake(NodeId),
    /// Chaos control events for a node: [`NodeEvent::Freeze`],
    /// [`NodeEvent::Thaw`] and [`NodeEvent::PanicInject`].
    Freeze(NodeId),
    Thaw(NodeId),
    Panic(NodeId),
}

/// Capacity of the command channel into the network thread, in
/// *commands*: each carries what one flush held, up to a whole worker
/// quantum's messages (`BATCH_EVENTS` handler calls on the reactor), so
/// the messages queued behind a busy network thread are bounded by this
/// times a quantum, not by this. Large enough that a healthy run never
/// fills it; bounding it makes a sender that outruns the network thread
/// wait for it (back-pressure, see [`NetLink::send`]) instead of growing
/// the queue without limit.
const NET_QUEUE_CAP: usize = 65_536;

/// Entries one direction may move before the loop turns to the other:
/// a delivery sweep hands over at most this many due entries, then the
/// ingest takes at most this many in-flight entries from queued commands
/// (the command that crosses the line is finished first). Either side
/// holds the other back by a fraction of a millisecond at most, so a
/// command storm cannot starve due deliveries, and a burst coming due
/// cannot starve the senders: their commands wait for a send instant,
/// and that wait is latency on the link like any other. The same bound
/// caps what is staged per sweep, so a burst of any size needs staging
/// memory for this many messages, not for the burst.
const TURN_BUDGET: usize = 4096;

/// Emptied batch buffers kept for reuse; a flush that finds none starts
/// a fresh one, a return that finds the list full is dropped.
const SPARE_OUTBOXES: usize = 256;

/// A node's handle on the network sink: a bounded channel sender, and
/// the free list of emptied batch buffers.
pub(crate) struct NetLink<M> {
    tx: Sender<NetCommand<M>>,
    /// Batch buffers the net thread has emptied, on their way back to
    /// whoever flushes next.
    spare: Arc<Mutex<Vec<Outbox<M>>>>,
}

// Manual impl: `derive(Clone)` would demand `M: Clone`, which the
// channel sender itself does not need.
impl<M> Clone for NetLink<M> {
    fn clone(&self) -> Self {
        NetLink {
            tx: self.tx.clone(),
            spare: Arc::clone(&self.spare),
        }
    }
}

impl<M> NetLink<M> {
    /// Pushes `cmd` onto the network queue, blocking while the queue is
    /// full; a message between honest nodes is never dropped. Silent on
    /// disconnect (the network thread is gone — the run is shutting
    /// down).
    ///
    /// The wait always ends, because the net thread never waits on a
    /// worker. It takes inbox locks, which workers hold only for a swap
    /// or a splice; it pushes onto the unbounded ready channel and the
    /// urgent lane; it never locks a cell's `core`. So a worker blocked
    /// here in [`Outbox::flush`] while holding its node's `core` waits
    /// only on the net thread, and the net thread always drains.
    pub fn send(&self, cmd: NetCommand<M>) {
        let _ = self.tx.send(cmd);
    }

    /// Replaces `node`'s wake-up with `at` (`None` clears it). Blocks
    /// while the queue is full, like [`send`](Self::send): a lost wake-up
    /// would be a node that never runs its timers again.
    pub fn wake(&self, node: NodeId, at: Option<Instant>) {
        let _ = self.tx.send(NetCommand::Wake { node, at });
    }

    /// An empty outbox to fill next: a recycled one when the net thread
    /// has returned any (so its buffers are already grown), else fresh.
    pub fn spare_outbox(&self) -> Outbox<M> {
        self.spare.lock().pop().unwrap_or_default()
    }
}

pub(crate) enum NetCommand<M> {
    Send {
        from: NodeId,
        to: NodeId,
        msg: M,
    },
    /// One copy of `msg` to every node (including the sender), each
    /// destination with its own independently drawn delay.
    Broadcast {
        from: NodeId,
        msg: M,
    },
    /// Everything one flush held: the sends, then the broadcasts, as if
    /// each had been its own command, except that they share one send
    /// instant. The emptied outbox goes back to [`NetLink::spare_outbox`].
    Batch {
        from: NodeId,
        out: Outbox<M>,
    },
    /// Not a message: `node`'s next timer deadline, which replaces the
    /// one it registered before (`None` clears it). See
    /// [`NetLink::wake`].
    Wake {
        node: NodeId,
        at: Option<Instant>,
    },
    Shutdown,
}

/// The delay-injecting network thread handle.
pub(crate) struct Network<M> {
    pub link: NetLink<M>,
    handle: std::thread::JoinHandle<(u64, u64)>,
}

impl<M: Clone + Send + Sync + 'static> Network<M> {
    /// Spawns the network thread for an `n`-node system, delivering
    /// through `sink`. When `chaos` is set, the thread additionally
    /// enforces the timeline's link cuts, delay storms and flood
    /// windows on every message, and emits `Freeze`/`Thaw` events at
    /// the timeline's crash transitions.
    pub fn spawn<S: DeliverySink<M>>(
        sink: S,
        n: usize,
        d: Dur,
        u: Dur,
        seed: u64,
        chaos: Option<NetChaos>,
        counters: Arc<Counters>,
    ) -> Network<M> {
        let (tx, rx): (Sender<NetCommand<M>>, Receiver<NetCommand<M>>) =
            channel::bounded(NET_QUEUE_CAP);
        let spare = Arc::new(Mutex::new(Vec::new()));
        let flights = Flights::new(n, d, u, seed, chaos, Arc::clone(&spare));
        let handle = std::thread::Builder::new()
            .name("crusader-net".into())
            .spawn(move || network_loop(&rx, sink, flights, &counters))
            .expect("spawn network thread");
        Network {
            link: NetLink { tx, spare },
            handle,
        }
    }

    /// Stops the network thread (behind every command already queued)
    /// and joins it. Yields `(delivered, chaos_dropped)` message counts;
    /// what was still in flight is on the counters as discarded.
    ///
    /// # Panics
    ///
    /// Re-raises the network thread's panic, if it had one: a dead
    /// network thread must not pass for one that delivered nothing.
    pub fn shutdown(self) -> (u64, u64) {
        let _ = self.link.tx.send(NetCommand::Shutdown);
        self.handle
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

/// What every message of one command shares: the instant its flight
/// starts and the chaos windows open at that instant.
struct Departure {
    /// The send instant, in nanoseconds on the grid's clock.
    sent_ns: u64,
    /// Scenario time of the send instant (zero before the epoch).
    t: Time,
    storming: bool,
    flood: Option<FloodSpec>,
}

/// What the thread waits for, and everything that decides flight
/// times. Kept apart from the thread's loop so that tests can drive it
/// with instants of their choosing.
struct Flights<M> {
    queue: TimerWheel<Due<M>>,
    /// Messages in the queue.
    in_flight: usize,
    rng: SmallRng,
    n: usize,
    /// Where the grid starts.
    origin: Instant,
    /// Flights are `min_ns` plus a draw from `0..=spread_ns`: the range
    /// `[d − u, max(d − u, d − tick)]` of the module docs.
    min_ns: u64,
    spread_ns: u64,
    chaos: Option<NetChaos>,
    chaos_dropped: u64,
    delivered: u64,
    /// Due messages and control events of the current sweep, per
    /// destination, and the destinations that have any; then the nodes
    /// whose wake-up came due. The vectors keep their capacity from
    /// sweep to sweep.
    staged: Vec<Vec<NodeEvent<M>>>,
    touched: Vec<NodeId>,
    woken: Vec<NodeId>,
    spare: Arc<Mutex<Vec<Outbox<M>>>>,
    /// The key of each node's wake-up in the queue, if it has one.
    wake_keys: Vec<Option<WheelKey>>,
}

impl<M: Clone> Flights<M> {
    fn new(
        n: usize,
        d: Dur,
        u: Dur,
        seed: u64,
        chaos: Option<NetChaos>,
        spare: Arc<Mutex<Vec<Outbox<M>>>>,
    ) -> Self {
        let tick = tick_ns(u, d);
        let min_ns = whole_nanos(d - u);
        let mut flights = Flights {
            queue: TimerWheel::new(tick, 0),
            in_flight: 0,
            rng: SmallRng::seed_from_u64(seed ^ 0x7e7e_0000_0000_0001),
            n,
            origin: Instant::now(),
            min_ns,
            spread_ns: whole_nanos(d).saturating_sub(tick).saturating_sub(min_ns),
            chaos,
            chaos_dropped: 0,
            delivered: 0,
            staged: (0..n).map(|_| Vec::new()).collect(),
            touched: Vec::new(),
            woken: Vec::new(),
            spare,
            wake_keys: vec![None; n],
        };
        // Queued before any command, so each precedes its tick's deliveries.
        if let Some(c) = &flights.chaos {
            for (t, due) in c.control_events() {
                let at = flights.nanos_of(c.epoch + Duration::from_secs_f64(t.as_secs()));
                flights.queue.insert(at, due);
            }
        }
        flights
    }

    /// `at` in nanoseconds on the grid's clock (zero before its origin).
    fn nanos_of(&self, at: Instant) -> u64 {
        #[allow(clippy::cast_possible_truncation)]
        {
            at.saturating_duration_since(self.origin).as_nanos() as u64
        }
    }

    /// A flight time in nanoseconds, uniform over the drawn range.
    fn draw_flight(&mut self) -> u64 {
        // Multiply-shift instead of a modulo: no division, and a bias
        // of the range over 2⁶⁴.
        let range = u128::from(self.spread_ns) + 1;
        #[allow(clippy::cast_possible_truncation)]
        let drawn = ((u128::from(self.rng.next_u64()) * range) >> 64) as u64;
        self.min_ns + drawn
    }

    /// Puts a message in flight for `flight_ns`, its delivery rounded
    /// up to the grid so that it is never handed over early.
    fn push(
        &mut self,
        from: NodeId,
        to: NodeId,
        dep: &Departure,
        flight_ns: u64,
        payload: Payload<M>,
    ) {
        let due = Due::Message { from, to, payload };
        self.queue.insert(dep.sent_ns + flight_ns, due);
        self.in_flight += 1;
    }

    /// Puts one message for one destination in flight: the link-cut
    /// check, the flood copies (rushed to the bottom of the range or
    /// drawn), then the message itself (pinned to the top of the range
    /// in a storm, else drawn).
    fn route(&mut self, from: NodeId, to: NodeId, payload: Payload<M>, dep: &Departure) {
        if self
            .chaos
            .as_ref()
            .is_some_and(|c| c.timeline.cut(from, to, dep.t))
        {
            self.chaos_dropped += 1;
            return;
        }
        let payload = match dep.flood {
            Some(spec) => {
                let shared = payload.into_shared();
                for _ in 0..spec.copies {
                    let flight = if spec.rush {
                        self.min_ns
                    } else {
                        self.draw_flight()
                    };
                    let copy = Payload::Shared(Arc::clone(&shared));
                    self.push(from, to, dep, flight, copy);
                }
                Payload::Shared(shared)
            }
            None => payload,
        };
        let flight = if dep.storming {
            self.min_ns + self.spread_ns
        } else {
            self.draw_flight()
        };
        self.push(from, to, dep, flight, payload);
    }

    fn fan_out(&mut self, from: NodeId, msg: M, dep: &Departure) {
        let shared = Arc::new(msg);
        for to in NodeId::all(self.n) {
            self.route(from, to, Payload::Shared(Arc::clone(&shared)), dep);
        }
    }

    /// Puts everything `cmd` carries in flight, departing at `sent_at`
    /// (the thread passes the instant it dequeued the command), or
    /// registers the wake-up it carries. Returns `false` for `Shutdown`.
    fn enqueue(&mut self, cmd: NetCommand<M>, sent_at: Instant) -> bool {
        let (t, storming, flood) = match &self.chaos {
            Some(c) => {
                let t = Time::from_secs(sent_at.saturating_duration_since(c.epoch).as_secs_f64());
                (t, c.timeline.storming(t), c.timeline.flood(t))
            }
            None => (Time::ZERO, false, None),
        };
        let dep = Departure {
            sent_ns: self.nanos_of(sent_at),
            t,
            storming,
            flood,
        };
        match cmd {
            NetCommand::Send { from, to, msg } => self.route(from, to, Payload::One(msg), &dep),
            NetCommand::Broadcast { from, msg } => self.fan_out(from, msg, &dep),
            NetCommand::Batch { from, mut out } => {
                for (to, msg) in out.sends.drain(..) {
                    self.route(from, to, Payload::One(msg), &dep);
                }
                for msg in out.broadcasts.drain(..) {
                    self.fan_out(from, msg, &dep);
                }
                let mut spare = self.spare.lock();
                if spare.len() < SPARE_OUTBOXES {
                    spare.push(out);
                }
            }
            NetCommand::Wake { node, at } => {
                if let Some(key) = self.wake_keys[node.index()].take() {
                    self.queue.cancel(key);
                }
                if let Some(at) = at {
                    let key = self.queue.insert(self.nanos_of(at), Due::Wake(node));
                    self.wake_keys[node.index()] = Some(key);
                }
            }
            NetCommand::Shutdown => return false,
        }
        true
    }

    /// The instant of the earliest occupied tick: when the next sweep
    /// has something to hand over.
    fn next_due(&mut self) -> Option<Instant> {
        let ns = self.queue.next_deadline()?;
        Some(self.origin + Duration::from_nanos(ns))
    }

    /// One sweep: pops what every tick that has come by `now` holds —
    /// the earliest [`TURN_BUDGET`] entries, if there are more — in
    /// `(tick, arrival)` order. Messages and control events are staged
    /// per destination and handed over with one `deliver_batch` per
    /// destination that has any; then the due wake-ups fire.
    fn deliver_due<S: DeliverySink<M>>(&mut self, now: Instant, sink: &mut S) {
        let now_ns = self.nanos_of(now);
        for _ in 0..TURN_BUDGET {
            let Some((_, due)) = self.queue.pop_due(now_ns) else {
                break;
            };
            let (to, event) = match due {
                Due::Message { from, to, payload } => {
                    self.in_flight -= 1;
                    self.delivered += 1;
                    let msg = payload.into_msg();
                    (to, NodeEvent::Deliver { from, msg })
                }
                Due::Freeze(node) => (node, NodeEvent::Freeze),
                Due::Thaw(node) => (node, NodeEvent::Thaw),
                Due::Panic(node) => (node, NodeEvent::PanicInject),
                Due::Wake(node) => {
                    self.wake_keys[node.index()] = None;
                    self.woken.push(node);
                    continue;
                }
            };
            let slot = &mut self.staged[to.index()];
            if slot.is_empty() {
                self.touched.push(to);
            }
            slot.push(event);
        }
        for to in self.touched.drain(..) {
            let slot = &mut self.staged[to.index()];
            sink.deliver_batch(to, slot);
            debug_assert!(slot.is_empty(), "the sink left events behind");
        }
        for node in self.woken.drain(..) {
            sink.wake(node);
        }
    }
}

fn network_loop<M: Clone + Send, S: DeliverySink<M>>(
    rx: &Receiver<NetCommand<M>>,
    mut sink: S,
    mut flights: Flights<M>,
    counters: &Counters,
) -> (u64, u64) {
    let mut commands = 0u64;
    loop {
        // Hand over what is due before the wait and whatever it
        // receives: under an echo storm commands arrive without a pause,
        // and a wait that reported its deadline only once the queue ran
        // dry would starve every delivery and timer for as long as the
        // storm lasts.
        flights.deliver_due(Instant::now(), &mut sink);
        // Wait for the next command or the next due entry, whichever is
        // sooner. (After a sweep that used up its budget the next entry
        // is already due, and the wait only picks up a command that is
        // already queued.)
        let received = match flights.next_due() {
            Some(at) => rx.recv_deadline(at),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        // Ingest that command and every one already queued behind it,
        // up to the budget, where a wake-up counts as one entry. All
        // senders gone is a shutdown nobody sent.
        let mut next = match received {
            Ok(cmd) => Some(cmd),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(NetCommand::Shutdown),
        };
        let (floor, mut wakes) = (flights.in_flight, 0);
        while let Some(cmd) = next {
            let wake = matches!(cmd, NetCommand::Wake { .. });
            if !flights.enqueue(cmd, Instant::now()) {
                // Shutdown comes when every node is done (or gone), so
                // nobody is left to read what is still in flight: it is
                // counted as discarded, not delivered.
                counters.note_net_commands(commands);
                counters.note_discarded(flights.in_flight as u64);
                return (flights.delivered, flights.chaos_dropped);
            }
            if wake {
                wakes += 1;
            } else {
                commands += 1;
            }
            next = if flights.in_flight - floor + wakes < TURN_BUDGET {
                match rx.try_recv() {
                    Ok(cmd) => Some(cmd),
                    Err(TryRecvError::Empty) => None,
                    Err(TryRecvError::Disconnected) => Some(NetCommand::Shutdown),
                }
            } else {
                None
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    use super::*;

    const N: usize = 4;
    /// Marks the one message the storm test waits for.
    const MARK: u32 = u32::MAX;

    fn ms(x: f64) -> Dur {
        Dur::from_millis(x)
    }

    /// A timeline whose windows opened a second ago and stay open: nodes
    /// 0 and 3 cannot talk to each other, and every send is flooded with
    /// two extra copies at drawn delays.
    fn cut_and_flood() -> NetChaos {
        let mut timeline = ChaosTimeline::new(N);
        let (from, until) = (Time::from_millis(1.0), Time::from_secs(3600.0));
        let only = |i: usize| (0..N).map(|j| j == i).collect::<Vec<bool>>();
        timeline.cut_link(only(0), only(3), from, until);
        timeline.flood_window(from, until, 2, false);
        NetChaos {
            timeline: Arc::new(timeline),
            epoch: Instant::now() - Duration::from_secs(1),
        }
    }

    /// From every node: a unicast to every node, a broadcast, and a batch
    /// of a unicast to every node plus two broadcasts — five messages per
    /// ordered pair, 80 in all, each with a value of its own. Under
    /// [`cut_and_flood`] the 10 between nodes 0 and 3 are cut and the
    /// other 70 fly three times each.
    fn one_of_each() -> Vec<NetCommand<u32>> {
        let mut id = 0;
        let mut next = || {
            id += 1;
            id
        };
        let mut cmds = Vec::new();
        for from in NodeId::all(N) {
            for to in NodeId::all(N) {
                let msg = next();
                cmds.push(NetCommand::Send { from, to, msg });
            }
            let msg = next();
            cmds.push(NetCommand::Broadcast { from, msg });
            let out = Outbox {
                sends: NodeId::all(N).map(|to| (to, next())).collect(),
                broadcasts: vec![next(), next()],
            };
            cmds.push(NetCommand::Batch { from, out });
        }
        cmds
    }

    fn flights(d: Dur, u: Dur, seed: u64, chaos: Option<NetChaos>) -> Flights<u32> {
        Flights::new(N, d, u, seed, chaos, Arc::new(Mutex::new(Vec::new())))
    }

    /// Per destination, what arrived, with the instant of the sweep that
    /// brought it. Takes events one at a time, so `deliver_batch` is the
    /// trait's default.
    #[derive(Default)]
    struct PerEvent {
        now: Option<Instant>,
        got: [Vec<(u32, Option<Instant>)>; N],
    }

    impl DeliverySink<u32> for PerEvent {
        fn deliver(&mut self, to: NodeId, event: NodeEvent<u32>) {
            let NodeEvent::Deliver { msg, .. } = event else {
                panic!("only messages fly here");
            };
            self.got[to.index()].push((msg, self.now));
        }
    }

    /// The same record, taken a batch at a time, as the reactor takes it.
    #[derive(Default)]
    struct PerBatch {
        inner: PerEvent,
        batches: usize,
    }

    impl DeliverySink<u32> for PerBatch {
        fn deliver(&mut self, _to: NodeId, _event: NodeEvent<u32>) {
            panic!("messages come in batches");
        }

        fn deliver_batch(&mut self, to: NodeId, events: &mut Vec<NodeEvent<u32>>) {
            assert!(!events.is_empty(), "a hand-off with nothing in it");
            self.batches += 1;
            for event in events.drain(..) {
                self.inner.deliver(to, event);
            }
        }
    }

    /// What a real network thread handed over: how many events, and
    /// whether the [`MARK`]ed message was among them.
    #[derive(Default)]
    struct Tally {
        seen: Arc<AtomicU64>,
        marked: Arc<AtomicBool>,
    }

    impl DeliverySink<u32> for Tally {
        fn deliver(&mut self, _to: NodeId, event: NodeEvent<u32>) {
            self.seen.fetch_add(1, Ordering::Relaxed);
            if matches!(event, NodeEvent::Deliver { msg: MARK, .. }) {
                self.marked.store(true, Ordering::Release);
            }
        }
    }

    /// Runs one round of [`one_of_each`] through a real network thread
    /// and stops it once `wait_for` deliveries have been seen. Returns
    /// `(seen by the sink, delivered, chaos-dropped, discarded, commands)`.
    fn round_trip(d: Dur, u: Dur, wait_for: u64) -> (u64, u64, u64, u64, u64) {
        let counters = Arc::new(Counters::default());
        let sink = Tally::default();
        let seen = Arc::clone(&sink.seen);
        let chaos = Some(cut_and_flood());
        let net = Network::spawn(sink, N, d, u, 7, chaos, Arc::clone(&counters));
        for cmd in one_of_each() {
            net.link.send(cmd);
        }
        let patience = Instant::now() + Duration::from_secs(10);
        while seen.load(Ordering::Relaxed) < wait_for && Instant::now() < patience {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (delivered, dropped) = net.shutdown();
        let snap = counters.snapshot();
        (
            seen.load(Ordering::Relaxed),
            delivered,
            dropped,
            snap.events_discarded,
            snap.net_commands,
        )
    }

    #[test]
    fn every_message_is_delivered_dropped_or_still_in_flight() {
        // A short link, and time for everything to land.
        let (seen, delivered, dropped, discarded, commands) = round_trip(ms(2.0), ms(1.0), 210);
        assert_eq!((seen, delivered, dropped, discarded), (210, 210, 10, 0));
        assert_eq!(commands, one_of_each().len() as u64);
        // An hour-long link: all of it is in flight at shutdown.
        let hour = Dur::from_secs(3600.0);
        let (seen, delivered, dropped, discarded, _) = round_trip(hour, ms(1.0), 0);
        assert_eq!((seen, delivered, dropped, discarded), (0, 0, 10, 210));
    }

    #[test]
    fn a_full_queue_holds_a_send_back_and_never_drops_it() {
        // A queue of one that nobody reads for longer than any retry
        // policy would wait: the second command waits for room.
        let (tx, rx) = channel::bounded(1);
        let link = NetLink {
            tx,
            spare: Arc::new(Mutex::new(Vec::new())),
        };
        let sender = std::thread::spawn(move || {
            link.send(NetCommand::Shutdown);
            let out = Outbox {
                sends: vec![(NodeId::new(1), 0u32); 5],
                broadcasts: vec![1, 2],
            };
            link.send(NetCommand::Batch {
                from: NodeId::new(0),
                out,
            });
        });
        std::thread::sleep(Duration::from_millis(100));
        let patience = Duration::from_secs(10);
        assert!(matches!(
            rx.recv_timeout(patience),
            Ok(NetCommand::Shutdown)
        ));
        match rx.recv_timeout(patience) {
            Ok(NetCommand::Batch { from, out }) => {
                assert_eq!(from, NodeId::new(0));
                assert_eq!(out.sends.len() + out.broadcasts.len(), 7);
            }
            _ => panic!("the batch behind a full queue was dropped"),
        }
        sender
            .join()
            .expect("the sender returns once the queue has room");
    }

    /// What is in flight, as `(tick, to, msg)` in the order it is owed:
    /// tick by tick, arrival order within a tick.
    fn in_flight(flights: &Flights<u32>) -> Vec<(u64, NodeId, u32)> {
        let tick = flights.queue.granularity();
        let all = flights.queue.clone().advance(u64::MAX).into_iter();
        all.filter_map(|(ns, due)| match due {
            Due::Message { to, payload, .. } => Some((ns / tick, to, payload.into_msg())),
            _ => None,
        })
        .collect()
    }

    /// The values a command carries.
    fn values(cmd: &NetCommand<u32>) -> Vec<u32> {
        match cmd {
            NetCommand::Send { msg, .. } | NetCommand::Broadcast { msg, .. } => vec![*msg],
            NetCommand::Batch { out, .. } => {
                let sends = out.sends.iter().map(|&(_, msg)| msg);
                sends.chain(out.broadcasts.iter().copied()).collect()
            }
            NetCommand::Wake { .. } | NetCommand::Shutdown => Vec::new(),
        }
    }

    #[test]
    fn each_destination_gets_tick_then_arrival_order_nothing_early_nothing_late() {
        let (d, u) = (ms(20.0), ms(5.0));
        let (floor, ceiling) = (Duration::from_millis(15), Duration::from_millis(20));
        let mut flights = flights(d, u, 11, Some(cut_and_flood()));
        let tick = Duration::from_nanos(flights.queue.granularity());
        assert!(
            tick <= Duration::from_millis(5),
            "u ≥ tick: the window holds"
        );
        // Send instants of our choosing, off the grid: a command every
        // 37 µs from 3 ms in.
        let mut sent_at = std::collections::HashMap::new();
        for (k, cmd) in (0u32..).zip(one_of_each()) {
            let at = flights.origin + Duration::from_millis(3) + Duration::from_micros(37) * k;
            sent_at.extend(values(&cmd).into_iter().map(|msg| (msg, at)));
            assert!(flights.enqueue(cmd, at));
        }
        // What is in flight, per destination, in the order it is owed.
        let mut owed: [Vec<(Instant, u32)>; N] = Default::default();
        for (tick_no, to, msg) in in_flight(&flights) {
            let due = flights.origin + Duration::from_nanos(tick_no * flights.queue.granularity());
            assert!(due >= sent_at[&msg] + floor, "scheduled before d - u");
            assert!(due <= sent_at[&msg] + ceiling, "scheduled after d");
            owed[to.index()].push((due, msg));
        }
        assert_eq!(owed.iter().map(Vec::len).sum::<usize>(), 210);
        // Sweep at instants of our choosing: just short of the first
        // tick due, then every 50 µs until the last is over.
        let step = Duration::from_micros(50);
        let mut sink = PerEvent::default();
        let mut now = flights.next_due().expect("in flight") - Duration::from_nanos(1);
        sink.now = Some(now);
        flights.deliver_due(now, &mut sink);
        assert!(
            sink.got.iter().all(Vec::is_empty),
            "delivered before its tick"
        );
        while flights.in_flight > 0 {
            now += step;
            sink.now = Some(now);
            flights.deliver_due(now, &mut sink);
        }
        assert_eq!(flights.delivered, 210);
        assert_eq!(flights.next_due(), None);
        for (got, owed) in sink.got.iter().zip(&owed) {
            assert_eq!(got.len(), owed.len());
            for (&(msg, swept), &(due, owed_msg)) in got.iter().zip(owed) {
                assert_eq!(msg, owed_msg, "out of (tick, arrival) order");
                let swept = swept.expect("set per sweep");
                assert!(swept >= due, "delivered early");
                assert!(swept < due + step, "not by the first sweep after its tick");
            }
        }
    }

    /// Storm and rush stay inside the window: a stormed message flies
    /// the longest flight a draw could give, a rushed copy the shortest.
    #[test]
    fn a_storm_pins_to_the_top_of_the_range_and_a_rush_to_the_bottom() {
        let mut timeline = ChaosTimeline::new(N);
        let (from, until) = (Time::from_millis(1.0), Time::from_secs(3600.0));
        timeline.storm(from, until);
        timeline.flood_window(from, until, 1, true);
        let chaos = NetChaos {
            timeline: Arc::new(timeline),
            epoch: Instant::now(),
        };
        let mut flights = flights(ms(20.0), ms(5.0), 5, Some(chaos));
        // Sent off the grid, one second in.
        let sent_ns = 12_800 * flights.queue.granularity() + 1_000;
        let sent_at = flights.origin + Duration::from_nanos(sent_ns);
        let (from, msg) = (NodeId::new(2), 9);
        assert!(flights.enqueue(NetCommand::Broadcast { from, msg }, sent_at));
        let ticks: Vec<u64> = in_flight(&flights).iter().map(|m| m.0).collect();
        assert_eq!(ticks.len(), 2 * N);
        // The rushed copies share the first tick at or after `d − u`,
        // the stormed originals the last one at or before `d`.
        let (bottom, top) = (sent_ns + 15_000_000, sent_ns + 20_000_000);
        assert_eq!(
            ticks[..N],
            [bottom.div_ceil(flights.queue.granularity()); N]
        );
        assert_eq!(ticks[N..], [top / flights.queue.granularity(); N]);
    }

    /// Control events come out of the time queue in time order, a drill
    /// before a later crash transition; at one instant the transition
    /// goes first, and a delivery due in the tick of a `Freeze` lands
    /// after it.
    #[test]
    fn control_events_pop_in_time_order_transitions_first_at_a_tie() {
        let mut timeline = ChaosTimeline::new(N);
        timeline.crash(1, Time::from_millis(20.0), Some(Time::from_millis(30.0)));
        timeline.panic_at(2, Time::from_millis(10.0));
        timeline.panic_at(3, Time::from_millis(20.0));
        let epoch = Instant::now();
        let chaos = NetChaos {
            timeline: Arc::new(timeline),
            epoch,
        };
        // No flight time: a message is due in the tick it is sent in.
        let mut flights = flights(Dur::ZERO, Dur::ZERO, 0, Some(chaos));
        let (from, to) = (NodeId::new(0), NodeId::new(1));
        let freeze_at = epoch + Duration::from_millis(20);
        assert!(flights.enqueue(NetCommand::Send { from, to, msg: 7 }, freeze_at));

        /// Every event with the instant of the sweep that handed it over.
        struct Log(Option<Instant>, Vec<(Instant, usize, &'static str)>);
        impl DeliverySink<u32> for Log {
            fn deliver(&mut self, to: NodeId, event: NodeEvent<u32>) {
                let kind = match event {
                    NodeEvent::Freeze => "freeze",
                    NodeEvent::Thaw => "thaw",
                    NodeEvent::PanicInject => "panic",
                    NodeEvent::Deliver { .. } => "deliver",
                    NodeEvent::Shutdown => unreachable!("never queued"),
                };
                self.1
                    .push((self.0.expect("set per sweep"), to.index(), kind));
            }
        }
        let mut sink = Log(None, Vec::new());
        while let Some(due) = flights.next_due() {
            sink.0 = Some(due);
            flights.deliver_due(due, &mut sink);
        }
        let expected = [
            (10, 2, "panic"),
            (20, 1, "freeze"),
            (20, 1, "deliver"),
            (20, 3, "panic"),
            (30, 1, "thaw"),
        ];
        assert_eq!(sink.1.len(), expected.len());
        // Each in the first sweep at or after its instant.
        let tick = Duration::from_nanos(flights.queue.granularity());
        for (&(swept, node, kind), &(ms, n, k)) in sink.1.iter().zip(&expected) {
            assert_eq!((node, kind), (n, k));
            let at = epoch + Duration::from_millis(ms);
            let late = "{kind} at {ms} ms swept late";
            assert!(swept >= at && swept < at + tick, "{late}");
        }
    }

    /// An hour-long link is 72 million ticks of 50 µs; a burst on it
    /// costs a slab entry per message and a ring of the ticks the burst
    /// itself covers. A wake-up an hour out and one far in the past
    /// stretch the ring by nothing and by one tick.
    #[test]
    fn the_ring_spans_the_occupied_ticks_only() {
        let mut flights = flights(Dur::from_secs(3600.0), ms(1.0), 7, None);
        assert_eq!(flights.queue.granularity(), 50_000);
        let sent_at = flights.origin + Duration::from_millis(1);
        for cmd in one_of_each() {
            assert!(flights.enqueue(cmd, sent_at));
        }
        assert_eq!(
            flights.queue.footprint().0,
            0,
            "the burst waits off the ring"
        );
        // A sweep a second in; then a wake-up an hour after it, and one
        // a second before it.
        let swept = flights.origin + Duration::from_secs(1);
        let mut sink = PerEvent::default();
        flights.deliver_due(swept, &mut sink);
        let wakes = [(0, swept + Duration::from_secs(3600)), (1, flights.origin)];
        for (node, at) in wakes {
            let node = NodeId::new(node);
            assert!(flights.enqueue(NetCommand::Wake { node, at: Some(at) }, swept));
        }
        assert_eq!(flights.queue.footprint().2, 82);
        assert_eq!(flights.queue.footprint().0, 1, "the stale wake-up's tick");
        assert_eq!(flights.next_due(), Some(swept), "the stale wake-up is due");
        flights.deliver_due(swept, &mut sink);
        assert!(flights.wake_keys[1].is_none(), "the stale wake-up fired");
        // A tick before the burst is due, it joins the ring; the far
        // wake-up, 20 000 ticks behind it, does not.
        let hour = flights.origin + Duration::from_secs(3600);
        flights.deliver_due(hour - Duration::from_micros(50), &mut sink);
        assert!(sink.got.iter().all(Vec::is_empty), "delivered early");
        assert!(flights.next_due().is_some_and(|due| due >= hour));
        let (span, capacity, _) = flights.queue.footprint();
        assert!(span <= 21, "{span}");
        assert!(capacity <= 64, "{capacity}");
        assert_eq!(flights.queue.len(), 81);
    }

    /// A sink that panics kills the network thread, and `shutdown` says
    /// so instead of reporting that nothing was delivered.
    #[test]
    #[should_panic(expected = "the sink broke")]
    fn a_panicking_network_thread_panics_shutdown() {
        struct Broken;
        impl DeliverySink<u32> for Broken {
            fn deliver(&mut self, _to: NodeId, _event: NodeEvent<u32>) {
                panic!("the sink broke");
            }
        }
        let counters = Arc::new(Counters::default());
        let net = Network::spawn(Broken, N, Dur::ZERO, Dur::ZERO, 1, None, counters);
        let (from, to) = (NodeId::new(0), NodeId::new(1));
        net.link.send(NetCommand::Send { from, to, msg: 0 });
        let patience = Instant::now() + Duration::from_secs(10);
        while !net.handle.is_finished() && Instant::now() < patience {
            std::thread::sleep(Duration::from_millis(1));
        }
        net.shutdown();
    }

    #[test]
    fn a_batching_sink_sees_what_the_default_sees() {
        // One command, so every message shares its send instant and the
        // order at each destination is the seeded draws' alone.
        let quantum = || {
            let sends = (0..400).map(|i| (NodeId::new(i % N), i as u32)).collect();
            let out = Outbox {
                sends,
                broadcasts: vec![1000, 1001, 1002],
            };
            NetCommand::Batch {
                from: NodeId::new(1),
                out,
            }
        };
        let now = Instant::now();
        let later = now + Duration::from_secs(3600);
        let mut one_by_one = PerEvent::default();
        let mut a = flights(ms(20.0), ms(5.0), 3, None);
        assert!(a.enqueue(quantum(), now));
        a.deliver_due(later, &mut one_by_one);
        let mut batched = PerBatch::default();
        let mut b = flights(ms(20.0), ms(5.0), 3, None);
        assert!(b.enqueue(quantum(), now));
        b.deliver_due(later, &mut batched);
        assert_eq!(a.delivered, 412);
        assert_eq!(one_by_one.got, batched.inner.got);
        assert_eq!(batched.batches, N, "one hand-off per destination per sweep");
        // The emptied outbox came back for the next flush.
        assert_eq!(a.spare.lock().len(), 1);
    }

    #[test]
    fn a_sweep_stops_at_its_budget_and_the_next_takes_the_rest() {
        // No uncertainty and one send instant: one tick holds them all.
        let mut flights = flights(ms(1.0), Dur::ZERO, 1, None);
        let sends = (0..TURN_BUDGET + 5)
            .map(|i| (NodeId::new(i % N), i as u32))
            .collect();
        let out = Outbox {
            sends,
            broadcasts: Vec::new(),
        };
        let from = NodeId::new(0);
        let now = Instant::now();
        assert!(flights.enqueue(NetCommand::Batch { from, out }, now));
        assert_eq!(flights.queue.footprint().0, 1);
        let later = now + Duration::from_secs(1);
        let mut sink = PerBatch::default();
        flights.deliver_due(later, &mut sink);
        assert_eq!(flights.delivered, TURN_BUDGET as u64);
        assert_eq!(flights.in_flight, 5);
        assert!(flights.next_due().is_some_and(|due| due <= later));
        flights.deliver_due(later, &mut sink);
        assert_eq!(flights.in_flight, 0);
        assert_eq!(flights.next_due(), None);
        // The tick came out in arrival order across the two sweeps.
        for (to, got) in sink.inner.got.iter().enumerate() {
            let sent = (0..TURN_BUDGET + 5).filter(|i| i % N == to);
            let got = got.iter().map(|&(msg, _)| msg as usize);
            assert!(got.eq(sent), "destination {to} out of arrival order");
        }
    }

    /// Per destination, how many hand-offs the current sweep made, and
    /// the messages seen so far. Any number of destinations.
    struct Census {
        handed: Vec<u32>,
        messages: usize,
    }

    impl DeliverySink<u32> for Census {
        fn deliver(&mut self, _to: NodeId, _event: NodeEvent<u32>) {
            panic!("messages come in batches");
        }

        fn deliver_batch(&mut self, to: NodeId, events: &mut Vec<NodeEvent<u32>>) {
            assert!(!events.is_empty(), "a hand-off with nothing in it");
            self.handed[to.index()] += 1;
            self.messages += events.len();
            events.clear();
        }
    }

    /// The count the grid exists for: an echo round of a 40-node mesh —
    /// 1600 broadcasts spread over `u`, 64 000 deliveries spread over
    /// `2u` — takes one sweep per tick, not one per message.
    #[test]
    fn a_round_takes_a_sweep_per_tick_and_a_hand_off_per_destination() {
        const MESH: usize = 40;
        let (d, u) = (ms(200.0), ms(60.0));
        let spare = Arc::new(Mutex::new(Vec::new()));
        let mut flights: Flights<u32> = Flights::new(MESH, d, u, 23, None, spare);
        let tick = Duration::from_nanos(flights.queue.granularity());
        let start = flights.origin + Duration::from_millis(5);
        let apart = Duration::from_millis(60) / (MESH * MESH) as u32;
        for k in 0..(MESH * MESH) as u32 {
            let from = NodeId::new(k as usize % MESH);
            let cmd = NetCommand::Broadcast { from, msg: k };
            assert!(flights.enqueue(cmd, start + apart * k));
        }
        assert_eq!(flights.in_flight, MESH * MESH * MESH);
        let mut sink = Census {
            handed: vec![0; MESH],
            messages: 0,
        };
        let (mut sweeps, mut round_sweeps) = (0u64, None);
        while let Some(due) = flights.next_due() {
            sweeps += 1;
            sink.handed.fill(0);
            let before = sink.messages;
            flights.deliver_due(due, &mut sink);
            assert!(sink.messages > before, "woke for an empty tick");
            assert!(
                sink.handed.iter().all(|&h| h <= 1),
                "two hand-offs to one destination in one sweep"
            );
            if sweeps == 10 {
                // A command that arrives between two ticks is taken in,
                // and the sweep it causes hands nothing over early.
                let between = due + tick / 2;
                let cmd = NetCommand::Broadcast {
                    from: NodeId::new(0),
                    msg: u32::MAX,
                };
                assert!(flights.enqueue(cmd, between));
                let seen = sink.messages;
                sink.handed.fill(0);
                flights.deliver_due(between, &mut sink);
                assert_eq!(sink.messages, seen, "delivered between ticks");
                assert!(sink.handed.iter().all(|&h| h == 0));
            }
            // The late broadcast lands after the round's last tick.
            if round_sweeps.is_none() && sink.messages >= MESH * MESH * MESH {
                round_sweeps = Some(sweeps);
            }
        }
        assert_eq!(sink.messages, MESH * MESH * MESH + MESH);
        let (sweeps, bound) = (
            round_sweeps.expect("set"),
            2 * 60_000_000 / flights.queue.granularity() + 2,
        );
        assert!(
            sweeps <= bound,
            "{sweeps} sweeps for a round, bound {bound}"
        );
        assert!(
            sweeps >= bound / 2,
            "{sweeps} sweeps: the round was not spread"
        );
    }

    /// The net thread's starvation rule: with commands arriving faster
    /// than they can be ingested, the queue is never seen empty, and only
    /// the ingest budget gets a due message delivered (and a due wake-up
    /// fired: both happen at the top of every turn).
    #[test]
    fn a_command_storm_does_not_starve_a_due_delivery() {
        let sink = Tally::default();
        let landed = Arc::clone(&sink.marked);
        let counters = Arc::new(Counters::default());
        let net = Network::spawn(sink, N, ms(5.0), ms(1.0), 5, None, counters);
        let (from, to) = (NodeId::new(0), NodeId::new(1));
        net.link.send(NetCommand::Send {
            from,
            to,
            msg: MARK,
        });
        // The storm lasts until the marked message lands; the quota only
        // bounds what a regression would cost in memory.
        let storm: Vec<_> = (0..2)
            .map(|_| {
                let (tx, landed) = (net.link.tx.clone(), Arc::clone(&landed));
                std::thread::spawn(move || {
                    let mut sent = 0u32;
                    while !landed.load(Ordering::Acquire) && sent < 2_000_000 {
                        let msg = 0;
                        if tx.send(NetCommand::Send { from, to, msg }).is_err() {
                            break;
                        }
                        sent += 1;
                    }
                    sent
                })
            })
            .collect();
        let sent: Vec<u32> = storm
            .into_iter()
            .map(|h| h.join().expect("storm"))
            .collect();
        assert!(
            landed.load(Ordering::Acquire),
            "the due message never landed behind {sent:?} storm commands"
        );
        net.shutdown();
    }

    mod proptests {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        use proptest::prelude::*;

        use super::*;

        proptest! {
            /// The time queue, driven through `Flights`, against a
            /// `BinaryHeap<(tick, arrival)>`: every sweep hands each
            /// destination what the heap pops, in the heap's order, the
            /// budget included; the next deadline is the heap's minimum;
            /// and the slab is never longer than the most messages that
            /// were in flight at once. On a `d = u = 0` link a message's
            /// tick is its send instant rounded up, so choosing send
            /// instants is choosing ticks — also ones the sweeps have
            /// already passed, which both clamp to the last swept tick.
            #[test]
            fn prop_ring_matches_heap_oracle(
                // One op per value (the vendored proptest stand-in has no
                // tuple strategies): the low 3 bits select, the rest is
                // the argument.
                ops in proptest::collection::vec(0u32..1 << 16, 1..120)
            ) {
                let mut flights = flights(Dur::ZERO, Dur::ZERO, 0, None);
                let (origin, tick) = (flights.origin, flights.queue.granularity());
                let instant_of = |tick_no: u64| origin + Duration::from_nanos(tick_no * tick);
                let mut oracle: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
                let (mut arrivals, mut peak, mut now_tick) = (0u32, 0usize, 8u64);
                // The tick of the last sweep: a push into an earlier tick
                // is clamped to it.
                let mut swept = 0u64;
                for op in ops {
                    let arg = u64::from(op >> 3);
                    // How many messages to push into which tick, or
                    // `None` to sweep.
                    let push = match op & 7 {
                        // Near the sweep instant, up to 8 ticks behind it.
                        0..=3 => Some((1, now_tick + arg % 48 - 8)),
                        // Far ahead of anything else in flight.
                        4 => Some((1, now_tick + 1_000 + arg)),
                        // Now and then, more than a sweep's budget in one tick.
                        5 if arg % 4 == 0 => {
                            Some((TURN_BUDGET as u64 + arg % 9, now_tick + arg % 3))
                        }
                        5 => Some((1, now_tick)),
                        _ => None,
                    };
                    if let Some((count, at_tick)) = push {
                        let sends = (0..count).map(|_| {
                            let arrival = arrivals;
                            arrivals += 1;
                            oracle.push(Reverse((at_tick.max(swept), arrival)));
                            (NodeId::new(arrival as usize % N), arrival)
                        });
                        let out = Outbox {
                            sends: sends.collect(),
                            broadcasts: Vec::new(),
                        };
                        let from = NodeId::new(0);
                        prop_assert!(flights.enqueue(NetCommand::Batch { from, out }, instant_of(at_tick)));
                        peak = peak.max(oracle.len());
                    } else {
                        // Sweep a few ticks on, or at the same instant
                        // again, or — now and then — so far on that the
                        // ring drains and the next push starts it afresh.
                        let drain = op & 7 == 7 && arg % 8 == 0;
                        now_tick += match (op & 7, drain) {
                            (6, _) => arg % 16,
                            (_, true) => 20_000,
                            _ => 0,
                        };
                        // Anywhere inside the tick will do.
                        let now = instant_of(now_tick) + Duration::from_nanos(arg % tick);
                        swept = now_tick;
                        loop {
                            let mut expect: [Vec<u32>; N] = Default::default();
                            for _ in 0..TURN_BUDGET {
                                match oracle.peek() {
                                    Some(&Reverse((t, arrival))) if t <= now_tick => {
                                        oracle.pop();
                                        expect[arrival as usize % N].push(arrival);
                                    }
                                    _ => break,
                                }
                            }
                            let mut sink = PerBatch::default();
                            flights.deliver_due(now, &mut sink);
                            let got = sink
                                .inner
                                .got
                                .map(|to| to.iter().map(|&(msg, _)| msg).collect::<Vec<_>>());
                            prop_assert_eq!(got, expect);
                            if !drain || oracle.is_empty() {
                                break;
                            }
                        }
                    }
                    prop_assert_eq!(flights.in_flight, oracle.len());
                    let due = oracle.peek().map(|&Reverse((t, _))| instant_of(t));
                    prop_assert_eq!(flights.next_due(), due);
                    prop_assert!(flights.queue.footprint().2 <= peak);
                }
            }
        }
    }
}
