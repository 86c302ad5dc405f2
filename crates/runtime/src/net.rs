//! The delay-injecting network thread, shared by both backends.
//!
//! Receives send/broadcast commands from node handlers, holds each
//! message for a random flight time inside `[d − u, d]` (drawn per
//! *destination*, like the simulator's random delay model), then hands
//! it to the backend through a [`DeliverySink`] — a channel push for the
//! thread backend, an inbox hand-off plus wakeup for the reactor.
//!
//! # The tick grid
//!
//! The thread acts on the grid the reactor's timer wheel uses: ticks of
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
//! same "the host inflates `u`" caveat as the wheel's tick.
//!
//! A CPS round is `n³` deliveries spread over `2u`: at their drawn
//! instants they come due a microsecond apart, and every one of them
//! that the thread sleeps towards costs a timer slack, a preemption and
//! a wake-up of the parked worker. On the grid the loop sleeps until
//! the next *occupied* tick and hands the whole tick over, one hand-off
//! per destination: at most `2u/tick + 2` sweeps a round however many
//! messages it holds.
//!
//! # The tick ring
//!
//! Every message of a tick shares its instant, so what is in flight
//! needs no ordering beyond "which tick" and "arrival order within it".
//! [`TickRing`] keeps one slab of entries threaded into per-tick FIFO
//! lists (`next` index per entry, `(head, tail)` per tick, freed entries
//! on a free list), and a ring of ticks that spans only the first to the
//! last *occupied* tick. Push and pop are `O(1)`; the front tick is never
//! empty while anything is in flight, so the sleep deadline is `O(1)`
//! too. The slab is as long as the most messages ever in flight at once
//! and the ring costs eight bytes per tick between the earliest and the
//! latest delivery outstanding — neither grows with `d/tick` for a burst
//! on a long link, nor with the fullest tick (one queue per tick would
//! keep every tick's peak capacity for good). A push earlier than
//! everything in flight (a sweep that ran late, a `d − u` below one tick)
//! becomes the new front tick: due at once, never lost, and with no
//! rotation to wait out.
//!
//! # Batches in both directions
//!
//! At a million messages a second what a message costs is the channel
//! operation around it, not the ring push:
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
//! the ring holds small entries sharing a payload instead of 2048 deep
//! copies.

use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel::{
    self, Receiver, RecvTimeoutError, SendTimeoutError, Sender, TryRecvError,
};
use crusader_crypto::NodeId;
use crusader_sim::{ChaosTimeline, FloodSpec};
use crusader_time::{Dur, Time};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

use crate::node::Outbox;
use crate::supervise::Counters;
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
    /// Chaos injection: the node crashes (drops deliveries, defers
    /// timers) until [`NodeEvent::Thaw`].
    Freeze,
    /// Chaos injection: the node recovers; overdue timers fire at the
    /// recovery instant, mirroring the simulator's deferral semantics.
    Thaw,
    /// Chaos injection: the node's next handler invocation panics (a
    /// supervision drill — exercises containment and worker respawn).
    /// Ignored while the node is frozen.
    PanicInject,
    /// Orderly shutdown request from the harness.
    Shutdown,
}

/// How the network hands events to the backend.
///
/// Implemented by plain closures; the network thread is generic over it
/// so the thread and reactor backends share one delivery loop. Carries
/// whole [`NodeEvent`]s (not just messages) so the chaos injector can
/// emit `Freeze`/`Thaw` control events through the same path.
pub(crate) trait DeliverySink<M>: Send + 'static {
    fn deliver(&mut self, to: NodeId, event: NodeEvent<M>);

    /// Hands over everything one delivery sweep holds for `to`, in
    /// delivery order, and leaves `events` empty (its capacity stays
    /// with the network, which refills it next sweep). The default
    /// forwards event by event; a backend whose hand-off has a fixed
    /// cost — a lock, a wake-up — overrides it to pay that cost once.
    fn deliver_batch(&mut self, to: NodeId, events: &mut Vec<NodeEvent<M>>) {
        for event in events.drain(..) {
            self.deliver(to, event);
        }
    }
}

impl<M, F: FnMut(NodeId, NodeEvent<M>) + Send + 'static> DeliverySink<M> for F {
    fn deliver(&mut self, to: NodeId, event: NodeEvent<M>) {
        self(to, event);
    }
}

/// Chaos injection context for the network thread: the fault timeline
/// plus the run's epoch anchor. The epoch arrives through a `OnceLock`
/// because the thread backend anchors it only after the startup barrier
/// — until it is set, no scenario time has elapsed (every window starts
/// after time zero) and the network polls briefly instead of blocking.
pub(crate) struct NetChaos {
    pub timeline: Arc<ChaosTimeline>,
    pub epoch: Arc<OnceLock<Instant>>,
}

impl NetChaos {
    /// The host instant of scenario time `t`, once the epoch is anchored.
    fn instant_of(&self, t: Time) -> Option<Instant> {
        self.epoch
            .get()
            .map(|epoch| *epoch + Duration::from_secs_f64(t.as_secs()))
    }

    /// Whether scenario time `t` has come by `now` (never, before the
    /// epoch is anchored).
    fn due(&self, t: Time, now: Instant) -> bool {
        self.instant_of(t).is_some_and(|at| at <= now)
    }
}

/// An in-flight payload: owned for unicasts, `Arc`-shared for
/// broadcasts and flood copies (cloned per destination only at
/// delivery).
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

/// End-of-list mark in the [`TickRing`]'s entry indices.
const NIL: u32 = u32::MAX;

/// One message in flight, or a free slab entry (`payload` is `None`).
/// `next` is the entry behind it in its tick, or the next free entry.
struct Entry<M> {
    next: u32,
    from: NodeId,
    to: NodeId,
    payload: Option<Payload<M>>,
}

/// One tick's FIFO list of slab entries: `(head, tail)`, both [`NIL`]
/// when no message is due in the tick.
#[derive(Clone, Copy)]
struct TickList {
    head: u32,
    tail: u32,
}

const NO_MESSAGES: TickList = TickList {
    head: NIL,
    tail: NIL,
};

/// The messages in flight, by delivery tick, in arrival order within a
/// tick (module docs, *The tick ring*).
struct TickRing<M> {
    /// The slab: grows only when the free list is empty, so its length
    /// is the most messages ever in flight at once.
    entries: Vec<Entry<M>>,
    /// Head of the free list threaded through `entries`.
    free: u32,
    /// The ticks from `first` to the last occupied one. Neither end is
    /// ever an empty tick; the ones in between may be.
    ticks: VecDeque<TickList>,
    /// The tick of `ticks[0]`.
    first: u64,
    len: usize,
}

impl<M> TickRing<M> {
    fn new() -> Self {
        TickRing {
            entries: Vec::new(),
            free: NIL,
            ticks: VecDeque::new(),
            first: 0,
            len: 0,
        }
    }

    /// The earliest tick with a message in it.
    fn first_tick(&self) -> Option<u64> {
        (!self.ticks.is_empty()).then_some(self.first)
    }

    /// Appends a message to `tick`'s list. A tick earlier than
    /// everything in flight becomes the new front.
    fn push(&mut self, tick: u64, from: NodeId, to: NodeId, payload: Payload<M>) {
        let entry = Entry {
            next: NIL,
            from,
            to,
            payload: Some(payload),
        };
        let at = if self.free == NIL {
            let at = u32::try_from(self.entries.len()).expect("the slab is indexed by u32");
            assert!(at != NIL, "2^32 messages in flight");
            self.entries.push(entry);
            at
        } else {
            let at = self.free;
            self.free = std::mem::replace(&mut self.entries[at as usize], entry).next;
            at
        };
        if self.ticks.is_empty() {
            self.first = tick;
        }
        for _ in tick..self.first {
            self.ticks.push_front(NO_MESSAGES);
        }
        self.first = self.first.min(tick);
        let offset = usize::try_from(tick - self.first).expect("ticks in flight fit in memory");
        if offset >= self.ticks.len() {
            self.ticks.resize(offset + 1, NO_MESSAGES);
        }
        let list = &mut self.ticks[offset];
        if list.head == NIL {
            list.head = at;
        } else {
            self.entries[list.tail as usize].next = at;
        }
        list.tail = at;
        self.len += 1;
    }

    /// Takes the oldest message of the earliest tick, if that tick is
    /// `now_tick` or earlier.
    fn pop_due(&mut self, now_tick: u64) -> Option<(NodeId, NodeId, Payload<M>)> {
        if self.first > now_tick {
            return None;
        }
        let list = self.ticks.front_mut()?;
        let at = list.head;
        let entry = &mut self.entries[at as usize];
        let payload = entry
            .payload
            .take()
            .expect("a listed entry holds a message");
        let popped = (entry.from, entry.to, payload);
        list.head = std::mem::replace(&mut entry.next, self.free);
        self.free = at;
        self.len -= 1;
        // Keep the front occupied: drop this tick once it is empty, and
        // the empty ones behind it.
        while self.ticks.front().is_some_and(|list| list.head == NIL) {
            self.ticks.pop_front();
            self.first += 1;
        }
        Some(popped)
    }
}

/// Bounded retry policy for pushing a command onto the network sink:
/// total attempts per send, and the first per-send timeout (doubled on
/// every retry — exponential backoff).
const NET_SEND_ATTEMPTS: u32 = 4;
const NET_BACKOFF_BASE: Duration = Duration::from_millis(2);

/// Capacity of the command channel into the network thread, in
/// *commands*: each carries what one flush held, up to a whole worker
/// quantum's messages (`BATCH_EVENTS` handler calls on the reactor), so
/// the messages queued behind a wedged network thread are bounded by
/// this times a quantum, not by this. Large enough that a healthy run
/// never fills it; bounding it means a wedged network thread exerts
/// backpressure (and eventually triggers the retry/degradation path)
/// instead of growing the queue without limit.
const NET_QUEUE_CAP: usize = 65_536;

/// Messages one direction may move before the loop turns to the other:
/// a delivery sweep hands over at most this many due messages, then the
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

/// A node's handle on the network sink: a bounded channel sender with
/// retry, exponential backoff and a per-send timeout. A command that
/// exhausts its attempts is dropped and every message in it counted
/// (message loss is within the model — the protocol tolerates it),
/// never a panic or a stall.
pub(crate) struct NetLink<M> {
    tx: Sender<NetCommand<M>>,
    /// Batch buffers the net thread has emptied, on their way back to
    /// whoever flushes next.
    spare: Arc<Mutex<Vec<Outbox<M>>>>,
    counters: Arc<Counters>,
}

// Manual impl: `derive(Clone)` would demand `M: Clone`, which the
// channel sender itself does not need.
impl<M> Clone for NetLink<M> {
    fn clone(&self) -> Self {
        NetLink {
            tx: self.tx.clone(),
            spare: Arc::clone(&self.spare),
            counters: Arc::clone(&self.counters),
        }
    }
}

impl<M> NetLink<M> {
    /// Pushes `cmd` onto the network queue, retrying with backoff while
    /// the queue stays full. Silent on disconnect (the network thread is
    /// gone — the run is shutting down); on exhaustion the command is
    /// dropped, each message in it counted as a failed send, and the
    /// lot charged to the fault budget.
    pub fn send(&self, mut cmd: NetCommand<M>) {
        let mut timeout = NET_BACKOFF_BASE;
        for attempt in 1..=NET_SEND_ATTEMPTS {
            match self.tx.send_timeout(cmd, timeout) {
                Ok(()) => return,
                Err(SendTimeoutError::Disconnected(_)) => return,
                Err(SendTimeoutError::Timeout(back)) => {
                    cmd = back;
                    if attempt < NET_SEND_ATTEMPTS {
                        self.counters.note_net_retry();
                        timeout *= 2;
                    }
                }
            }
        }
        self.counters.note_net_sends_failed(cmd.messages());
        self.counters.note_fault_budget();
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
    Shutdown,
}

impl<M> NetCommand<M> {
    /// Messages a node handed over in this command (a broadcast is one).
    fn messages(&self) -> u64 {
        match self {
            NetCommand::Send { .. } | NetCommand::Broadcast { .. } => 1,
            NetCommand::Batch { out, .. } => (out.sends.len() + out.broadcasts.len()) as u64,
            NetCommand::Shutdown => 0,
        }
    }
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
        let handle = {
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name("crusader-net".into())
                .spawn(move || network_loop(&rx, sink, flights, &counters))
                .expect("spawn network thread")
        };
        Network {
            link: NetLink {
                tx,
                spare,
                counters,
            },
            handle,
        }
    }

    /// Stops the network thread (behind every command already queued)
    /// and joins it. Yields `(delivered, chaos_dropped)` message counts;
    /// what was still in flight is on the counters as discarded.
    pub fn shutdown(self) -> (u64, u64) {
        let _ = self.link.tx.send(NetCommand::Shutdown);
        self.handle.join().unwrap_or((0, 0))
    }
}

/// What every message of one command shares: the instant its flight
/// starts and the chaos windows open at that instant.
struct Departure {
    /// The send instant, in nanoseconds on the grid's clock.
    sent_ns: u64,
    /// Scenario time of the send instant; zero until the epoch is
    /// anchored (all chaos windows open strictly after time zero).
    t: Time,
    storming: bool,
    flood: Option<FloodSpec>,
}

/// The messages in flight and everything that decides their flight
/// times. Kept apart from the thread's loop so that tests can drive it
/// with instants of their choosing.
struct Flights<M> {
    ring: TickRing<M>,
    rng: SmallRng,
    n: usize,
    /// Where the grid starts, and its tick in nanoseconds.
    origin: Instant,
    tick: u64,
    /// Flights are `min_ns` plus a draw from `0..=spread_ns`: the range
    /// `[d − u, max(d − u, d − tick)]` of the module docs.
    min_ns: u64,
    spread_ns: u64,
    chaos: Option<NetChaos>,
    chaos_dropped: u64,
    delivered: u64,
    /// Due messages of the current sweep, per destination, and the
    /// destinations that have any. The inner vectors keep their
    /// capacity from sweep to sweep.
    staged: Vec<Vec<NodeEvent<M>>>,
    touched: Vec<NodeId>,
    spare: Arc<Mutex<Vec<Outbox<M>>>>,
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
        Flights {
            ring: TickRing::new(),
            rng: SmallRng::seed_from_u64(seed ^ 0x7e7e_0000_0000_0001),
            n,
            origin: Instant::now(),
            tick,
            min_ns,
            spread_ns: whole_nanos(d).saturating_sub(tick).saturating_sub(min_ns),
            chaos,
            chaos_dropped: 0,
            delivered: 0,
            staged: (0..n).map(|_| Vec::new()).collect(),
            touched: Vec::new(),
            spare,
        }
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
        let tick = (dep.sent_ns + flight_ns).div_ceil(self.tick);
        self.ring.push(tick, from, to, payload);
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
    /// (the thread passes the instant it dequeued the command). Returns
    /// `false` for `Shutdown`.
    fn enqueue(&mut self, cmd: NetCommand<M>, sent_at: Instant) -> bool {
        let (t, storming, flood) = match &self.chaos {
            Some(c) => {
                let t = c.epoch.get().map_or(Time::ZERO, |epoch| {
                    Time::from_secs(sent_at.saturating_duration_since(*epoch).as_secs_f64())
                });
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
            NetCommand::Shutdown => return false,
        }
        true
    }

    /// The instant of the earliest occupied tick: when the next sweep
    /// has something to hand over.
    fn next_due(&self) -> Option<Instant> {
        self.ring
            .first_tick()
            .map(|tick| self.origin + Duration::from_nanos(tick * self.tick))
    }

    /// One delivery sweep: hands the messages of every tick that has
    /// come by `now` — the earliest [`TURN_BUDGET`] of them, if there
    /// are more — to `sink`, staged per destination in `(tick, arrival)`
    /// order, then one `deliver_batch` per destination that has any.
    fn deliver_due<S: DeliverySink<M>>(&mut self, now: Instant, sink: &mut S) {
        let now_tick = self.nanos_of(now) / self.tick;
        for _ in 0..TURN_BUDGET {
            let Some((from, to, payload)) = self.ring.pop_due(now_tick) else {
                break;
            };
            let slot = &mut self.staged[to.index()];
            if slot.is_empty() {
                self.touched.push(to);
            }
            slot.push(NodeEvent::Deliver {
                from,
                msg: payload.into_msg(),
            });
            self.delivered += 1;
        }
        for to in self.touched.drain(..) {
            let slot = &mut self.staged[to.index()];
            sink.deliver_batch(to, slot);
            debug_assert!(slot.is_empty(), "the sink left events behind");
        }
    }
}

/// Crash-transition playback state: the sorted `(when, node, down)`
/// schedule from [`ChaosTimeline::crash_transitions`] plus a cursor.
struct Transitions {
    schedule: Vec<(Time, usize, bool)>,
    next: usize,
}

/// Panic-drill playback state: the sorted `(when, node)` schedule from
/// [`ChaosTimeline::panic_schedule`] plus a cursor.
struct PanicCursor {
    schedule: Vec<(Time, usize)>,
    next: usize,
}

fn network_loop<M: Clone + Send, S: DeliverySink<M>>(
    rx: &Receiver<NetCommand<M>>,
    mut sink: S,
    mut flights: Flights<M>,
    counters: &Counters,
) -> (u64, u64) {
    let mut transitions = flights.chaos.as_ref().map(|c| Transitions {
        schedule: c.timeline.crash_transitions(),
        next: 0,
    });
    let mut panics = flights.chaos.as_ref().map(|c| PanicCursor {
        schedule: c.timeline.panic_schedule(),
        next: 0,
    });
    let mut commands = 0u64;
    loop {
        // Deliver what is due, after any crash transitions and panic
        // drills that have come due.
        let now = Instant::now();
        if let (Some(tr), Some(c)) = (transitions.as_mut(), flights.chaos.as_ref()) {
            while let Some(&(t, node, down)) = tr.schedule.get(tr.next) {
                if !c.due(t, now) {
                    break;
                }
                tr.next += 1;
                let event = if down {
                    NodeEvent::Freeze
                } else {
                    NodeEvent::Thaw
                };
                sink.deliver(NodeId::new(node), event);
            }
        }
        if let (Some(pc), Some(c)) = (panics.as_mut(), flights.chaos.as_ref()) {
            while let Some(&(t, node)) = pc.schedule.get(pc.next) {
                if !c.due(t, now) {
                    break;
                }
                pc.next += 1;
                sink.deliver(NodeId::new(node), NodeEvent::PanicInject);
            }
        }
        flights.deliver_due(now, &mut sink);
        // Wait for the next command, the next due delivery, or the next
        // chaos transition — whichever is soonest. (After a sweep that
        // used up its budget the next delivery is already due, and the
        // wait only picks up a command that is already queued.) Until
        // the epoch is anchored a pending schedule polls at 1ms.
        let mut deadline: Option<Instant> = flights.next_due();
        if let Some(c) = flights.chaos.as_ref() {
            let next_crash = transitions
                .as_ref()
                .and_then(|tr| tr.schedule.get(tr.next).map(|&(t, _, _)| t));
            let next_panic = panics
                .as_ref()
                .and_then(|pc| pc.schedule.get(pc.next).map(|&(t, _)| t));
            for t in [next_crash, next_panic].into_iter().flatten() {
                let at = c.instant_of(t).unwrap_or(now + Duration::from_millis(1));
                deadline = Some(deadline.map_or(at, |d| d.min(at)));
            }
        }
        let received = match deadline {
            Some(at) => rx.recv_deadline(at),
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        // Ingest that command and every one already queued behind it,
        // up to the budget. All senders gone is a shutdown nobody sent.
        let mut next = match received {
            Ok(cmd) => Some(cmd),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(NetCommand::Shutdown),
        };
        let floor = flights.ring.len;
        while let Some(cmd) = next {
            if !flights.enqueue(cmd, Instant::now()) {
                // Shutdown comes when every node is done (or gone), so
                // nobody is left to read what is still in flight: it is
                // counted as discarded, not delivered.
                counters.note_net_commands(commands);
                counters.note_discarded(flights.ring.len as u64);
                return (flights.delivered, flights.chaos_dropped);
            }
            commands += 1;
            next = if flights.ring.len - floor < TURN_BUDGET {
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
        let epoch = Arc::new(OnceLock::new());
        epoch
            .set(Instant::now() - Duration::from_secs(1))
            .expect("fresh cell");
        NetChaos {
            timeline: Arc::new(timeline),
            epoch,
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

    /// Runs one round of [`one_of_each`] through a real network thread
    /// and stops it once `wait_for` deliveries have been seen. Returns
    /// `(seen by the sink, delivered, chaos-dropped, discarded, commands)`.
    fn round_trip(d: Dur, u: Dur, wait_for: u64) -> (u64, u64, u64, u64, u64) {
        let counters = Arc::new(Counters::new(N));
        let seen = Arc::new(AtomicU64::new(0));
        let sink = {
            let seen = Arc::clone(&seen);
            move |_to: NodeId, _event: NodeEvent<u32>| {
                seen.fetch_add(1, Ordering::Relaxed);
            }
        };
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
    fn a_command_given_up_on_counts_every_message_in_it() {
        // A queue of one that nobody reads: the second command runs out
        // of attempts.
        let (tx, _rx) = channel::bounded(1);
        let counters = Arc::new(Counters::new(N));
        let link = NetLink {
            tx,
            spare: Arc::new(Mutex::new(Vec::new())),
            counters: Arc::clone(&counters),
        };
        link.send(NetCommand::Shutdown);
        let out = Outbox {
            sends: vec![(NodeId::new(1), 0u32); 5],
            broadcasts: vec![1, 2],
        };
        let from = NodeId::new(0);
        link.send(NetCommand::Batch { from, out });
        let snap = counters.snapshot();
        assert_eq!(snap.net_sends_failed, 7);
        assert_eq!(snap.net_retries, u64::from(NET_SEND_ATTEMPTS) - 1);
        assert!(snap.degraded, "seven lost messages against a budget of one");
    }

    /// What is in flight, as `(tick, to, msg)` in the order it is owed:
    /// tick by tick, arrival order within a tick.
    fn in_flight(ring: &TickRing<u32>) -> Vec<(u64, NodeId, u32)> {
        let mut owed = Vec::new();
        for (tick, list) in (ring.first..).zip(&ring.ticks) {
            let mut at = list.head;
            while at != NIL {
                let entry = &ring.entries[at as usize];
                let msg = match entry.payload.as_ref().expect("listed") {
                    Payload::One(msg) => *msg,
                    Payload::Shared(msg) => **msg,
                };
                owed.push((tick, entry.to, msg));
                at = entry.next;
            }
        }
        assert_eq!(owed.len(), ring.len);
        owed
    }

    /// The values a command carries.
    fn values(cmd: &NetCommand<u32>) -> Vec<u32> {
        match cmd {
            NetCommand::Send { msg, .. } | NetCommand::Broadcast { msg, .. } => vec![*msg],
            NetCommand::Batch { out, .. } => {
                let sends = out.sends.iter().map(|&(_, msg)| msg);
                sends.chain(out.broadcasts.iter().copied()).collect()
            }
            NetCommand::Shutdown => Vec::new(),
        }
    }

    #[test]
    fn each_destination_gets_tick_then_arrival_order_nothing_early_nothing_late() {
        let (d, u) = (ms(20.0), ms(5.0));
        let (floor, ceiling) = (Duration::from_millis(15), Duration::from_millis(20));
        let mut flights = flights(d, u, 11, Some(cut_and_flood()));
        let tick = Duration::from_nanos(flights.tick);
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
        for (tick_no, to, msg) in in_flight(&flights.ring) {
            let due = flights.origin + Duration::from_nanos(tick_no * flights.tick);
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
        while flights.ring.len > 0 {
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
        let epoch = Arc::new(OnceLock::new());
        let chaos = NetChaos {
            timeline: Arc::new(timeline),
            epoch: Arc::clone(&epoch),
        };
        let mut flights = flights(ms(20.0), ms(5.0), 5, Some(chaos));
        epoch.set(flights.origin).expect("fresh cell");
        // Sent off the grid, one second in.
        let sent_ns = 12_800 * flights.tick + 1_000;
        let sent_at = flights.origin + Duration::from_nanos(sent_ns);
        let (from, msg) = (NodeId::new(2), 9);
        assert!(flights.enqueue(NetCommand::Broadcast { from, msg }, sent_at));
        let ticks: Vec<u64> = in_flight(&flights.ring).iter().map(|m| m.0).collect();
        assert_eq!(ticks.len(), 2 * N);
        // The rushed copies share the first tick at or after `d − u`,
        // the stormed originals the last one at or before `d`.
        let (bottom, top) = (sent_ns + 15_000_000, sent_ns + 20_000_000);
        assert_eq!(ticks[..N], [bottom.div_ceil(flights.tick); N]);
        assert_eq!(ticks[N..], [top / flights.tick; N]);
    }

    /// An hour-long link is 72 million ticks of 50 µs; a burst on it
    /// costs a slab entry per message and a ring of the ticks the burst
    /// itself covers.
    #[test]
    fn the_ring_spans_the_occupied_ticks_only() {
        let mut flights = flights(Dur::from_secs(3600.0), ms(1.0), 7, None);
        assert_eq!(flights.tick, 50_000);
        let sent_at = flights.origin + Duration::from_millis(1);
        for cmd in one_of_each() {
            assert!(flights.enqueue(cmd, sent_at));
        }
        assert_eq!(flights.ring.entries.len(), 80);
        assert!(flights.ring.first > 71_000_000);
        assert!(
            flights.ring.ticks.len() <= 21,
            "{}",
            flights.ring.ticks.len()
        );
        assert!(flights.ring.ticks.capacity() <= 64);
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
        assert_eq!(flights.ring.ticks.len(), 1);
        let later = now + Duration::from_secs(1);
        let mut sink = PerBatch::default();
        flights.deliver_due(later, &mut sink);
        assert_eq!(flights.delivered, TURN_BUDGET as u64);
        assert_eq!(flights.ring.len, 5);
        assert!(flights.next_due().is_some_and(|due| due <= later));
        flights.deliver_due(later, &mut sink);
        assert_eq!(flights.ring.len, 0);
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
        let tick = Duration::from_nanos(flights.tick);
        let start = flights.origin + Duration::from_millis(5);
        let apart = Duration::from_millis(60) / (MESH * MESH) as u32;
        for k in 0..(MESH * MESH) as u32 {
            let from = NodeId::new(k as usize % MESH);
            let cmd = NetCommand::Broadcast { from, msg: k };
            assert!(flights.enqueue(cmd, start + apart * k));
        }
        assert_eq!(flights.ring.len, MESH * MESH * MESH);
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
            2 * 60_000_000 / flights.tick + 2,
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

    /// The net-thread analogue of the timer thread's starvation fix: with
    /// commands arriving faster than they can be ingested, the queue is
    /// never seen empty, and only the ingest budget gets a due message
    /// delivered.
    #[test]
    fn a_command_storm_does_not_starve_a_due_delivery() {
        let landed = Arc::new(AtomicBool::new(false));
        let sink = {
            let landed = Arc::clone(&landed);
            move |_to: NodeId, event: NodeEvent<u32>| {
                if matches!(event, NodeEvent::Deliver { msg: MARK, .. }) {
                    landed.store(true, Ordering::Release);
                }
            }
        };
        let counters = Arc::new(Counters::new(N));
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
            /// The ring, driven through `Flights`, against a
            /// `BinaryHeap<(tick, arrival)>`: every sweep hands each
            /// destination what the heap pops, in the heap's order, the
            /// budget included; the next deadline is the heap's minimum;
            /// and the slab is never longer than the most messages that
            /// were in flight at once. On a `d = u = 0` link a message's
            /// tick is its send instant rounded up, so choosing send
            /// instants is choosing ticks — also ones the sweeps have
            /// already passed.
            #[test]
            fn prop_ring_matches_heap_oracle(
                // One op per value (the vendored proptest stand-in has no
                // tuple strategies): the low 3 bits select, the rest is
                // the argument.
                ops in proptest::collection::vec(0u32..1 << 16, 1..120)
            ) {
                let mut flights = flights(Dur::ZERO, Dur::ZERO, 0, None);
                let (origin, tick) = (flights.origin, flights.tick);
                let instant_of = |tick_no: u64| origin + Duration::from_nanos(tick_no * tick);
                let mut oracle: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
                let (mut arrivals, mut peak, mut now_tick) = (0u32, 0usize, 8u64);
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
                            oracle.push(Reverse((at_tick, arrival)));
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
                    prop_assert_eq!(flights.ring.len, oracle.len());
                    let due = oracle.peek().map(|&Reverse((t, _))| instant_of(t));
                    prop_assert_eq!(flights.next_due(), due);
                    prop_assert!(flights.ring.entries.len() <= peak);
                }
            }
        }
    }
}
