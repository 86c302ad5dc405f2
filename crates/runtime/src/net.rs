//! The delay-injecting network thread, shared by both backends.
//!
//! Receives send/broadcast commands from node handlers, holds each
//! message for a uniformly random flight time in `[d − u, d]` (drawn
//! per *destination*, exactly like the simulator's random delay model),
//! then hands it to the backend through a [`DeliverySink`] — a channel
//! push for the thread backend, an inbox hand-off plus wakeup for the
//! reactor.
//!
//! Both directions move batches, because at a million messages a second
//! what a message costs is the channel operation around it, not the
//! heap push:
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
//!   messages, so a burst coming due cannot starve the ingest either)
//!   is staged per destination and handed over with one
//!   [`DeliverySink::deliver_batch`] per destination: on the reactor one
//!   inbox lock, one append and one `schedule`, however many messages
//!   the sweep held for that node.
//!
//! Every command goes through one enqueue routine, so the chaos checks
//! (link cut per `(from, to)`, storm and flood per send instant), the
//! per-destination delay draw and the `seq` tie-break are per message
//! exactly as they were when every message was its own command. The one
//! thing a batch shares is its **send instant**: `sent_at` is read once,
//! when the net thread dequeues the command, so all sends of one quantum
//! start their flight together (and a little later than `ctx.send` was
//! called — by the rest of the quantum plus the queueing). The read is
//! never earlier than the handler's call, so no message is delivered
//! before its real send instant plus `d − u`.
//!
//! Broadcasts travel from the sender to this thread as **one** value
//! and are held behind one `Arc` while in flight; the per-destination
//! clone happens only at delivery time. At reactor scale this matters
//! twice: a 2048-node broadcast is one channel send instead of 2048, and
//! the in-flight heap holds 16-byte-ish entries sharing a payload
//! instead of 2048 deep copies.

use std::collections::BinaryHeap;
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
use rand::{Rng, SeedableRng};

use crate::node::Outbox;
use crate::supervise::Counters;

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

struct InFlight<M> {
    deliver_at: Instant,
    seq: u64,
    from: NodeId,
    to: NodeId,
    payload: Payload<M>,
}

impl<M> PartialEq for InFlight<M> {
    fn eq(&self, other: &Self) -> bool {
        self.deliver_at == other.deliver_at && self.seq == other.seq
    }
}
impl<M> Eq for InFlight<M> {}
impl<M> PartialOrd for InFlight<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for InFlight<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by delivery time.
        other
            .deliver_at
            .cmp(&self.deliver_at)
            .then(other.seq.cmp(&self.seq))
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
    sent_at: Instant,
    /// Scenario time of `sent_at`; zero until the epoch is anchored
    /// (all chaos windows open strictly after time zero).
    t: Time,
    storming: bool,
    flood: Option<FloodSpec>,
}

/// The messages in flight and everything that decides their flight
/// times. Kept apart from the thread's loop so that tests can drive it
/// with instants of their choosing.
struct Flights<M> {
    heap: BinaryHeap<InFlight<M>>,
    seq: u64,
    rng: SmallRng,
    n: usize,
    /// Flight-time range `[d − u, d]`.
    min: Duration,
    max: Duration,
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
        Flights {
            heap: BinaryHeap::new(),
            seq: 0,
            rng: SmallRng::seed_from_u64(seed ^ 0x7e7e_0000_0000_0001),
            n,
            min: Duration::from_secs_f64((d - u).as_secs().max(0.0)),
            max: Duration::from_secs_f64(d.as_secs()),
            chaos,
            chaos_dropped: 0,
            delivered: 0,
            staged: (0..n).map(|_| Vec::new()).collect(),
            touched: Vec::new(),
            spare,
        }
    }

    fn draw_delay(&mut self) -> Duration {
        if self.max > self.min {
            let secs = self
                .rng
                .gen_range(self.min.as_secs_f64()..=self.max.as_secs_f64());
            Duration::from_secs_f64(secs)
        } else {
            self.max
        }
    }

    fn push(&mut self, from: NodeId, to: NodeId, deliver_at: Instant, payload: Payload<M>) {
        self.heap.push(InFlight {
            deliver_at,
            seq: self.seq,
            from,
            to,
            payload,
        });
        self.seq += 1;
    }

    /// Puts one message for one destination in flight: the link-cut
    /// check, the flood copies (rushed to the minimum delay or drawn),
    /// then the message itself (pinned to the maximum delay in a storm,
    /// else drawn).
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
                    let delay = if spec.rush {
                        self.min
                    } else {
                        self.draw_delay()
                    };
                    let copy = Payload::Shared(Arc::clone(&shared));
                    self.push(from, to, dep.sent_at + delay, copy);
                }
                Payload::Shared(shared)
            }
            None => payload,
        };
        let delay = if dep.storming {
            self.max
        } else {
            self.draw_delay()
        };
        self.push(from, to, dep.sent_at + delay, payload);
    }

    fn fan_out(&mut self, from: NodeId, msg: M, dep: &Departure) {
        let shared = Arc::new(msg);
        for to in NodeId::all(self.n) {
            self.route(from, to, Payload::Shared(Arc::clone(&shared)), dep);
        }
    }

    /// Puts everything `cmd` carries in flight, departing now. Returns
    /// `false` for `Shutdown`.
    fn enqueue(&mut self, cmd: NetCommand<M>) -> bool {
        let sent_at = Instant::now();
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
            sent_at,
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

    /// One delivery sweep: hands the messages due by `now` — the
    /// earliest [`TURN_BUDGET`] of them, if there are more — to `sink`,
    /// staged per destination in `(deliver_at, seq)` order, then one
    /// `deliver_batch` per destination that has any.
    fn deliver_due<S: DeliverySink<M>>(&mut self, now: Instant, sink: &mut S) {
        let mut room = TURN_BUDGET;
        while room > 0 && self.heap.peek().is_some_and(|m| m.deliver_at <= now) {
            room -= 1;
            let m = self.heap.pop().expect("peeked");
            let slot = &mut self.staged[m.to.index()];
            if slot.is_empty() {
                self.touched.push(m.to);
            }
            slot.push(NodeEvent::Deliver {
                from: m.from,
                msg: m.payload.into_msg(),
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
        let mut deadline: Option<Instant> = flights.heap.peek().map(|m| m.deliver_at);
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
        let floor = flights.heap.len();
        while let Some(cmd) = next {
            if !flights.enqueue(cmd) {
                // Shutdown comes when every node is done (or gone), so
                // nobody is left to read what is still in flight: it is
                // counted as discarded, not delivered.
                counters.note_net_commands(commands);
                counters.note_discarded(flights.heap.len() as u64);
                return (flights.delivered, flights.chaos_dropped);
            }
            commands += 1;
            next = if flights.heap.len() - floor < TURN_BUDGET {
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

    #[test]
    fn each_destination_gets_deliver_at_then_seq_order_and_nothing_early() {
        let (d, u) = (ms(20.0), ms(5.0));
        let floor = Duration::from_millis(15);
        let mut flights = flights(d, u, 11, Some(cut_and_flood()));
        let before = Instant::now();
        for cmd in one_of_each() {
            assert!(flights.enqueue(cmd));
        }
        let after = Instant::now();
        // What is in flight, per destination, in the order it is owed.
        let mut owed: [Vec<(Instant, u64, u32)>; N] = Default::default();
        for m in &flights.heap {
            assert!(m.deliver_at >= before + floor, "flight shorter than d - u");
            assert!(
                m.deliver_at <= after + Duration::from_millis(20),
                "flight longer than d"
            );
            let msg = match &m.payload {
                Payload::One(msg) => *msg,
                Payload::Shared(msg) => **msg,
            };
            owed[m.to.index()].push((m.deliver_at, m.seq, msg));
        }
        assert_eq!(owed.iter().map(Vec::len).sum::<usize>(), 210);
        for to in &mut owed {
            to.sort_unstable();
        }
        // Sweep at instants of our choosing: just short of the shortest
        // flight, then every half millisecond until the longest is over.
        let mut sink = PerEvent::default();
        let mut now = before + floor - Duration::from_nanos(1);
        sink.now = Some(now);
        flights.deliver_due(now, &mut sink);
        assert!(
            sink.got.iter().all(Vec::is_empty),
            "delivered before sent_at + (d - u)"
        );
        while !flights.heap.is_empty() {
            now += Duration::from_micros(500);
            sink.now = Some(now);
            flights.deliver_due(now, &mut sink);
        }
        assert_eq!(flights.delivered, 210);
        for (got, owed) in sink.got.iter().zip(&owed) {
            assert_eq!(got.len(), owed.len());
            for (&(msg, swept), &(deliver_at, _, owed_msg)) in got.iter().zip(owed) {
                assert_eq!(msg, owed_msg, "out of (deliver_at, seq) order");
                assert!(
                    swept.expect("set per sweep") >= deliver_at,
                    "delivered early"
                );
            }
        }
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
        let later = Instant::now() + Duration::from_secs(3600);
        let mut one_by_one = PerEvent::default();
        let mut a = flights(ms(20.0), ms(5.0), 3, None);
        assert!(a.enqueue(quantum()));
        a.deliver_due(later, &mut one_by_one);
        let mut batched = PerBatch::default();
        let mut b = flights(ms(20.0), ms(5.0), 3, None);
        assert!(b.enqueue(quantum()));
        b.deliver_due(later, &mut batched);
        assert_eq!(a.delivered, 412);
        assert_eq!(one_by_one.got, batched.inner.got);
        assert_eq!(batched.batches, N, "one hand-off per destination per sweep");
        // The emptied outbox came back for the next flush.
        assert_eq!(a.spare.lock().len(), 1);
    }

    #[test]
    fn a_sweep_stops_at_its_budget_and_the_next_takes_the_rest() {
        let mut flights = flights(ms(1.0), Dur::ZERO, 1, None);
        let sends = (0..TURN_BUDGET + 5)
            .map(|i| (NodeId::new(i % N), 0))
            .collect();
        let out = Outbox {
            sends,
            broadcasts: Vec::new(),
        };
        let from = NodeId::new(0);
        assert!(flights.enqueue(NetCommand::Batch { from, out }));
        let later = Instant::now() + Duration::from_secs(1);
        let mut sink = PerBatch::default();
        flights.deliver_due(later, &mut sink);
        assert_eq!(flights.delivered, TURN_BUDGET as u64);
        assert_eq!(flights.heap.len(), 5);
        flights.deliver_due(later, &mut sink);
        assert!(flights.heap.is_empty());
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
}
