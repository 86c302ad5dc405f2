//! The event-driven `reactor` backend: N node tasks on M worker threads.
//!
//! The thread backend burns one OS thread per node, which caps
//! deployments at a few dozen nodes; the reactor multiplexes thousands
//! of [`NodeCore`] state machines onto a small persistent worker pool —
//! the same long-lived-workers-fed-by-channels pattern as the sharded
//! simulator's lane pool (`crates/sim/src/shard.rs`), adapted from
//! "whole lanes per window" to "one node task per wakeup".
//!
//! ```text
//!             ┌────────────┐  NetCommand: one per quantum
//!   handlers ─┤  network   │◄───────────────────────────┐
//!             │  thread    │ one sweep per occupied tick │
//!             └─────┬──────┘ deliver_batch: one inbox    │
//!                   ▼        append + wake per node/sweep│
//!  ┌───────────────────────────────┐               ┌─────┴─────┐
//!  │ per-node cells                │   ready queue │  workers  │
//!  │  inbox: Mutex<VecDeque<Event>>│──────────────►│  (M long- │
//!  │  queued: AtomicBool           │  (crossbeam   │   lived   │
//!  │  core: Mutex<Option<NodeCore>>│   channel;    │  threads, │
//!  └───────────────────────────────┘   workers     │  parked   │
//!                   ▲                  park on     │  on recv) │
//!                   │ wake at deadline  recv)      └─────┬─────┘
//!             ┌─────┴──────┐                             │
//!             │   timer    │◄────────────────────────────┘
//!             │   thread   │  register(node, Instant)
//!             │ hashed     │
//!             │ timer wheel│
//!             └────────────┘
//! ```
//!
//! * **Cells and the ready queue.** Each node is a cell: an inbox, a
//!   `queued` flag, and its [`NodeCore`]. Anyone with events for the
//!   node (network thread, timer thread, harness) pushes them into the
//!   inbox and *schedules* the cell — a compare-and-swap on `queued`
//!   plus, if it was idle, one send on the shared ready channel. The
//!   network thread does this once per node per delivery sweep — one
//!   sweep per occupied tick — with everything the tick holds for the
//!   node, not once per message.
//!   Workers block on the ready channel (crossbeam parks them when it
//!   is empty), pop a node index, swap the node's inbox against their
//!   own empty scratch queue (the lock is held for the swap only, and
//!   both buffers keep their capacity, so the steady state allocates
//!   nothing), run the events through the same `NodeCore` handler code
//!   the thread backend uses, fire the node's due timers, hand
//!   everything the handlers sent to the network as one command, and
//!   clear `queued`. The flag guarantees a node is never on the ready
//!   queue twice, so a node's handlers are always executed sequentially
//!   — the [`Automaton`] contract — without per-node locks being
//!   contended.
//! * **Timers.** `SetTimer` deadlines stay node-local (each `NodeCore`
//!   keeps its own heap, as under the thread backend); the reactor only
//!   needs to know *when to wake the node next*. After running a node,
//!   the worker registers the node's earliest deadline with the timer
//!   thread, which multiplexes all N wakeups through one hashed
//!   [`TimerWheel`](crate::wheel::TimerWheel) and re-schedules each node
//!   as its tick expires. The wheel's tick is [`tick_ns`], the grid the
//!   network thread delivers on too (a wake can be late by at most one
//!   tick, which is indistinguishable from host scheduling jitter and is
//!   folded into the same "real hardware inflates `u`" caveat as
//!   everything else in this crate).
//! * **Fairness.** A worker processes at most [`BATCH_EVENTS`] events
//!   per scheduling, however many one hand-off put into the inbox; what
//!   is left goes back to the front of the inbox and the cell is
//!   re-scheduled at the back of the ready queue (as it is if the inbox
//!   grew while the worker was clearing the flag), so one hot node
//!   cannot starve 2047 others.
//! * **Supervision.** A handler panic is contained per event: the
//!   outbox rolls back to its pre-event state, the unprocessed tail of
//!   the scratch queue is re-spliced to the *front* of the node's inbox
//!   (no event lost, none delivered twice), and the panic is counted — then
//!   the worker carrying it dies and a dedicated supervisor thread
//!   respawns a replacement that adopts the same ready queue, so the
//!   dead worker's backlog is picked up by the pool. A watchdog thread
//!   scans per-node heartbeat slots (each node's next registered timer
//!   deadline) and re-schedules nodes whose deadline is long overdue —
//!   the signature of a wakeup lost to a wedged scheduler. Faults
//!   beyond the `⌊(n − 1)/2⌋` budget flip the run into logged, degraded
//!   mode; nothing aborts.
//! * **Shutdown.** The harness pushes `Shutdown` into every inbox,
//!   schedules every cell, then enqueues one sentinel per worker.
//!   Channel FIFO order means every pre-shutdown wakeup drains first;
//!   workers exit on the sentinel, then the supervisor, network, timer
//!   and watchdog threads are joined, and the pulse logs are harvested
//!   from the cells with everything quiescent — no lock is ever held
//!   while converting.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, Sender};
use crusader_crypto::{KeyRing, NodeId};
use crusader_sim::Automaton;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::clock::EmulatedClock;
use crate::harness::{BackendRun, RuntimeConfig};
use crate::net::{DeliverySink, NetChaos, NetLink, Network, NodeEvent};
use crate::node::{NodeCore, Outbox};
use crate::supervise::{self, Counters, Heartbeats};
use crate::tick_ns;
use crate::wheel::{TimerWheel, WheelKey};

/// Max events one scheduling quantum may process before the node goes
/// back to the end of the ready queue.
const BATCH_EVENTS: usize = 256;

/// Ready-queue sentinel telling a worker to exit.
const STOP: u32 = u32::MAX;

/// Ready-queue sentinel telling a worker to drain the urgent lane.
const KICK: u32 = u32::MAX - 1;

/// Slot count of the per-run hashed timer wheel.
const WHEEL_SLOTS: usize = 256;

struct Cell<A: Automaton> {
    inbox: Mutex<VecDeque<NodeEvent<A::Msg>>>,
    queued: AtomicBool,
    /// Whether the timer wheel currently holds a wakeup for this node.
    /// Set by the worker when it registers a deadline, cleared by the
    /// timer thread when the entry fires. Guards against the lost-wakeup
    /// race where the wheel fires *while* the node is mid-run (the
    /// `queued` flag swallows the schedule): the worker's post-run
    /// recheck sees `armed == false` with a deadline still pending and
    /// re-schedules itself.
    wheel_armed: AtomicBool,
    /// `None` for silent (crashed-from-start) nodes. Locked only by the
    /// single worker currently running the node (the `queued` protocol
    /// makes that exclusive), so never contended.
    core: Mutex<Option<NodeCore<A>>>,
}

struct Shared<A: Automaton> {
    cells: Vec<Cell<A>>,
    /// Immutable after construction: `false` for silent nodes, so the
    /// delivery path never touches a cell's `core` lock.
    active: Vec<bool>,
    ready_tx: Sender<u32>,
    /// Deadline wakeups jump the message backlog: workers drain this
    /// lane before taking the next ready-queue entry. Without it, a
    /// timer wake waits FIFO behind every queued node's message batch —
    /// milliseconds of protocol-visible timer lateness under an echo
    /// storm (the thread backend gets this priority for free from the
    /// kernel scheduler, which preempts busy threads when a
    /// `recv_deadline` expires).
    urgent: Mutex<VecDeque<u32>>,
}

impl<A: Automaton> Shared<A> {
    /// Puts `idx` on the ready queue unless it is already there.
    fn schedule(&self, idx: usize) {
        if !self.cells[idx].queued.swap(true, Ordering::AcqRel) {
            let _ = self.ready_tx.send(idx as u32);
        }
    }

    /// Like [`schedule`](Self::schedule), but through the urgent lane —
    /// used by the timer thread for expired deadlines. Unconditional:
    /// even a node already *on* the normal ready queue (or mid-run) must
    /// not serve its expired deadline behind the message backlog — under
    /// an echo storm that back-of-the-queue wait is tens of
    /// milliseconds. A duplicate run is a cheap no-op.
    fn schedule_urgent(&self, idx: usize) {
        let _ = self.cells[idx].queued.swap(true, Ordering::AcqRel);
        self.urgent.lock().push_back(idx as u32);
        // Kick a (possibly parked) worker to look at the lane.
        let _ = self.ready_tx.send(KICK);
    }
}

/// The network's way into the cells: one inbox lock and one wake-up
/// check per hand-off, however many events it carries. Events for
/// silent nodes are dropped here — the node crashed before start, so
/// the bytes would only pile up unread (the thread backend's sink does
/// the same; the network still counts the delivery). Also carries the
/// chaos injector's `Freeze`/`Thaw` control events.
struct CellSink<A: Automaton> {
    shared: Arc<Shared<A>>,
    counters: Arc<Counters>,
}

impl<A: Automaton> CellSink<A> {
    fn hand_off(&self, to: NodeId, put: impl FnOnce(&mut VecDeque<NodeEvent<A::Msg>>)) {
        if !self.shared.active[to.index()] {
            return;
        }
        put(&mut self.shared.cells[to.index()].inbox.lock());
        self.counters.note_inbox_handoff();
        self.shared.schedule(to.index());
    }
}

impl<A: Automaton> DeliverySink<A::Msg> for CellSink<A> {
    fn deliver(&mut self, to: NodeId, event: NodeEvent<A::Msg>) {
        self.hand_off(to, |inbox| inbox.push_back(event));
    }

    fn deliver_batch(&mut self, to: NodeId, events: &mut Vec<NodeEvent<A::Msg>>) {
        self.hand_off(to, |inbox| inbox.extend(events.drain(..)));
        // A silent node's events were not taken.
        events.clear();
    }
}

enum WheelCmd {
    /// Replace `node`'s wakeup with `at` (`None` clears it).
    Register { node: u32, at: Option<Instant> },
    Stop,
}

/// Everything a worker thread needs to run nodes. The supervisor moves
/// a dead worker's context into its replacement, so the replacement
/// adopts the same ready queue (and with it the dead worker's backlog).
struct WorkerCtx<A: Automaton> {
    shared: Arc<Shared<A>>,
    ready_rx: Receiver<u32>,
    net: NetLink<A::Msg>,
    wheel_tx: Sender<WheelCmd>,
    counters: Arc<Counters>,
    heartbeats: Arc<Heartbeats>,
}

// Manual impl: `derive(Clone)` would demand `A: Clone`.
impl<A: Automaton> Clone for WorkerCtx<A> {
    fn clone(&self) -> Self {
        WorkerCtx {
            shared: Arc::clone(&self.shared),
            ready_rx: self.ready_rx.clone(),
            net: self.net.clone(),
            wheel_tx: self.wheel_tx.clone(),
            counters: Arc::clone(&self.counters),
            heartbeats: Arc::clone(&self.heartbeats),
        }
    }
}

/// Puts `tail` back onto the *front* of the cell's inbox, ahead of
/// anything that arrived since it was taken, preserving delivery order.
/// Leaves `tail` empty.
fn splice_front<A: Automaton>(cell: &Cell<A>, tail: &mut VecDeque<NodeEvent<A::Msg>>) {
    if tail.is_empty() {
        return;
    }
    let mut inbox = cell.inbox.lock();
    tail.append(&mut inbox);
    std::mem::swap(&mut *inbox, tail);
}

/// Runs one handler call with panic capture: rolls the outbox back to
/// its pre-call state, counts the panic against the fault budget,
/// records it as a violation on the node (injected drills excepted) and
/// hands the payload back so the worker can die with it — the
/// supervisor respawns a replacement.
fn guarded<A: Automaton, R>(
    core: &mut NodeCore<A>,
    out: &mut Outbox<A::Msg>,
    counters: &Counters,
    f: impl FnOnce(&mut NodeCore<A>, &mut Outbox<A::Msg>) -> R,
) -> Result<R, Box<dyn Any + Send>> {
    let (s0, b0) = (out.sends.len(), out.broadcasts.len());
    match catch_unwind(AssertUnwindSafe(|| f(core, out))) {
        Ok(r) => Ok(r),
        Err(payload) => {
            out.sends.truncate(s0);
            out.broadcasts.truncate(b0);
            counters.note_panic();
            counters.note_fault_budget();
            let msg = supervise::panic_message(&*payload);
            if !supervise::is_injected(&msg) {
                core.note_violation(&format!("handler panicked: {msg}"));
            }
            Err(payload)
        }
    }
}

/// One scheduling quantum for node `idx` on a worker thread. `scratch`
/// is the worker's own event queue, empty between quanta.
///
/// A handler panic does not lose state: the outbox rolls back to the
/// pre-event point, the unprocessed tail of the scratch queue goes back
/// to the front of the inbox (no event lost, none delivered twice), the
/// cell's scheduling bookkeeping completes as usual — and the payload is
/// returned so the worker carrying the panic dies and is respawned.
fn run_node<A: Automaton>(
    ctx: &WorkerCtx<A>,
    idx: usize,
    out: &mut Outbox<A::Msg>,
    scratch: &mut VecDeque<NodeEvent<A::Msg>>,
) -> Result<(), Box<dyn Any + Send>> {
    let shared = &*ctx.shared;
    let cell = &shared.cells[idx];
    let mut panic_payload: Option<Box<dyn Any + Send>> = None;
    let deadline_pending = {
        let mut guard = cell.core.lock();
        let Some(core) = guard.as_mut() else {
            cell.queued.store(false, Ordering::Release);
            return Ok(());
        };
        if core.done {
            let leftover = {
                let mut inbox = cell.inbox.lock();
                let n = inbox.len();
                inbox.clear();
                n
            };
            ctx.counters.note_discarded(leftover as u64);
            ctx.heartbeats.set_deadline(idx, None);
            cell.queued.store(false, Ordering::Release);
            return Ok(());
        }
        if let Err(p) = guarded(core, out, &ctx.counters, |c, o| c.init(o)) {
            panic_payload = Some(p);
        }
        let mut processed = 0;
        'events: while panic_payload.is_none() && processed < BATCH_EVENTS {
            // Take the whole inbox by swapping it against the (empty)
            // scratch queue.
            std::mem::swap(&mut *cell.inbox.lock(), scratch);
            if scratch.is_empty() {
                break;
            }
            while processed < BATCH_EVENTS {
                let Some(event) = scratch.pop_front() else {
                    break;
                };
                processed += 1;
                match guarded(core, out, &ctx.counters, |c, o| c.on_event(event, o)) {
                    Ok(true) => {}
                    Ok(false) => {
                        // Shutdown: the rest of the batch is moot, but
                        // count it so message accounting stays honest.
                        ctx.counters.note_discarded(scratch.len() as u64);
                        scratch.clear();
                        break 'events;
                    }
                    Err(p) => {
                        panic_payload = Some(p);
                        break 'events;
                    }
                }
            }
        }
        // Hold the quantum to the cap strictly: what it did not get to —
        // past the cap, or behind a panic (worker-panic teardown fix:
        // requeued deterministically, not dropped with the dying worker)
        // — goes back to the *front* of the inbox, ahead of anything that
        // arrived since the swap. Otherwise one hot node under an echo
        // storm would monopolize its worker and starve every other
        // node's timers.
        splice_front(cell, scratch);
        if panic_payload.is_none() {
            if let Err(p) = guarded(core, out, &ctx.counters, |c, o| c.fire_due(o)) {
                panic_payload = Some(p);
            }
        }
        out.flush(core.me(), &ctx.net);
        // Register (or clear) this node's wakeup with the timer thread.
        // Re-registration is needed when the earliest deadline changed
        // *or* the wheel no longer holds our entry (it fired — possibly
        // before the emulated clock caught up to the local fire time, or
        // while this very run was in flight).
        let next = if core.done { None } else { core.next_deadline() };
        let needs_register = match next {
            Some(_) => {
                next != core.registered_wakeup || !cell.wheel_armed.load(Ordering::Acquire)
            }
            None => core.registered_wakeup.is_some(),
        };
        if needs_register {
            core.registered_wakeup = next;
            cell.wheel_armed.store(next.is_some(), Ordering::Release);
            let _ = ctx.wheel_tx.send(WheelCmd::Register {
                node: idx as u32,
                at: next,
            });
        }
        ctx.heartbeats
            .set_deadline(idx, if core.done { None } else { next });
        next.is_some()
    };
    cell.queued.store(false, Ordering::Release);
    // Lost-wakeup checks: events that arrived between the inbox drain
    // and the flag clear (or past the batch cap, or requeued by a panic)
    // re-schedule the node; so does a wheel wakeup that fired mid-run
    // and found `queued` set.
    if !cell.inbox.lock().is_empty()
        || (deadline_pending && !cell.wheel_armed.load(Ordering::Acquire))
    {
        shared.schedule(idx);
    }
    match panic_payload {
        Some(p) => Err(p),
        None => Ok(()),
    }
}

/// A worker's main loop: drain the urgent lane, then run ready nodes.
/// A node panic is re-raised here — the worker dies with it and the
/// supervisor respawns a replacement.
fn worker_main<A: Automaton>(ctx: &WorkerCtx<A>) {
    let mut out = Outbox::default();
    let mut scratch = VecDeque::new();
    while let Ok(idx) = ctx.ready_rx.recv() {
        if idx == STOP {
            return;
        }
        // Expired deadlines first; the ready-queue entry waits its turn
        // behind them.
        loop {
            let next = ctx.shared.urgent.lock().pop_front();
            match next {
                Some(u) => {
                    if let Err(p) = run_node(ctx, u as usize, &mut out, &mut scratch) {
                        std::panic::resume_unwind(p);
                    }
                }
                None => break,
            }
        }
        if idx != KICK {
            if let Err(p) = run_node(ctx, idx as usize, &mut out, &mut scratch) {
                std::panic::resume_unwind(p);
            }
        }
    }
}

/// Spawns one worker thread. On exit — clean or by panic — the worker
/// reports `(its context, panicked)` to the supervisor through
/// `exit_tx`, which decides between respawn and retirement.
fn spawn_worker<A: Automaton>(
    name: String,
    ctx: WorkerCtx<A>,
    exit_tx: Sender<(WorkerCtx<A>, bool)>,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(move || {
            let panicked = catch_unwind(AssertUnwindSafe(|| worker_main(&ctx))).is_err();
            let _ = exit_tx.send((ctx, panicked));
        })
        .expect("spawn worker thread")
}

fn timer_loop<A: Automaton>(
    shared: &Shared<A>,
    rx: &Receiver<WheelCmd>,
    t0: Instant,
    granularity_ns: u64,
) {
    let nanos_since = |at: Instant| -> u64 {
        #[allow(clippy::cast_possible_truncation)]
        {
            at.saturating_duration_since(t0).as_nanos() as u64
        }
    };
    let mut wheel: TimerWheel<u32> = TimerWheel::new(granularity_ns, WHEEL_SLOTS);
    let mut keys: Vec<Option<WheelKey>> = vec![None; shared.cells.len()];
    let apply = |wheel: &mut TimerWheel<u32>,
                     keys: &mut Vec<Option<WheelKey>>,
                     cmd: WheelCmd|
     -> bool {
        match cmd {
            WheelCmd::Register { node, at } => {
                if let Some(key) = keys[node as usize].take() {
                    wheel.cancel(key);
                }
                if let Some(at) = at {
                    keys[node as usize] = Some(wheel.insert(nanos_since(at), node));
                }
                true
            }
            WheelCmd::Stop => false,
        }
    };
    loop {
        // Apply every already-queued command without blocking…
        loop {
            match rx.try_recv() {
                Ok(cmd) => {
                    if !apply(&mut wheel, &mut keys, cmd) {
                        return;
                    }
                }
                Err(channel::TryRecvError::Empty) => break,
                Err(channel::TryRecvError::Disconnected) => return,
            }
        }
        // …then fire everything due *now*. This must come before the
        // blocking receive and must not depend on a timeout: under an
        // echo storm the re-registration traffic is continuous, and a
        // `recv_deadline` that drains queued commands before reporting
        // `Timeout` would otherwise starve expiry for as long as the
        // storm lasts (≈ one message flight — a protocol-visible
        // deadline slip, not jitter).
        for (_, node) in wheel.advance(nanos_since(Instant::now())) {
            keys[node as usize] = None;
            // Disarm *before* scheduling: if the node is mid-run and the
            // schedule is swallowed by its `queued` flag, the worker's
            // post-run recheck observes the disarm and re-schedules.
            shared.cells[node as usize]
                .wheel_armed
                .store(false, Ordering::Release);
            shared.schedule_urgent(node as usize);
        }
        let next = wheel
            .next_deadline()
            .map(|ns| t0 + Duration::from_nanos(ns));
        let cmd = match next {
            Some(at) => rx.recv_deadline(at),
            None => rx
                .recv()
                .map_err(|_| channel::RecvTimeoutError::Disconnected),
        };
        match cmd {
            Ok(cmd) => {
                if !apply(&mut wheel, &mut keys, cmd) {
                    return;
                }
            }
            Err(channel::RecvTimeoutError::Disconnected) => return,
            Err(channel::RecvTimeoutError::Timeout) => { /* loop fires due */ }
        }
    }
}

/// Runs the configured system on the reactor backend. Mirrors the thread
/// backend observable-for-observable: same RNG draw order for rates and
/// offsets, same network semantics, same report.
pub(crate) fn run<A, F>(
    cfg: &RuntimeConfig,
    silent: &[usize],
    ring: &KeyRing,
    rng: &mut SmallRng,
    mut make_node: F,
) -> BackendRun
where
    A: Automaton,
    F: FnMut(NodeId) -> A,
{
    let workers = cfg
        .workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        })
        .max(1);
    let t0 = Instant::now();
    let counters = Arc::new(Counters::new(cfg.n));
    let heartbeats = Arc::new(Heartbeats::new(cfg.n, t0));
    let stop = Arc::new(AtomicBool::new(false));
    // The epoch is a hair in the future so every clock starts at its
    // configured offset, mirroring the thread backend's barrier anchor.
    let epoch = t0 + Duration::from_millis(2);
    let verifier = ring.verifier();

    let (ready_tx, ready_rx) = channel::unbounded::<u32>();
    let mut cells = Vec::with_capacity(cfg.n);
    let mut active = Vec::with_capacity(cfg.n);
    for i in 0..cfg.n {
        let core = if silent.binary_search(&i).is_ok() {
            None
        } else {
            let me = NodeId::new(i);
            let rate = 1.0 + rng.gen::<f64>() * (cfg.theta - 1.0);
            let offset = cfg.max_offset * rng.gen::<f64>();
            let clock = EmulatedClock::new(epoch, offset, rate);
            let mut core = NodeCore::new(
                make_node(me),
                me,
                cfg.n,
                clock,
                ring.signer(me),
                Arc::clone(&verifier),
            );
            if let Some(obs) = &cfg.observer {
                core.set_observer(Arc::clone(obs), epoch);
            }
            Some(core)
        };
        active.push(core.is_some());
        cells.push(Cell {
            inbox: Mutex::new(VecDeque::new()),
            queued: AtomicBool::new(false),
            wheel_armed: AtomicBool::new(false),
            core: Mutex::new(core),
        });
    }
    let shared = Arc::new(Shared {
        cells,
        active,
        ready_tx: ready_tx.clone(),
        urgent: Mutex::new(VecDeque::new()),
    });

    let net_sink = CellSink {
        shared: Arc::clone(&shared),
        counters: Arc::clone(&counters),
    };
    let net_chaos = cfg.chaos.as_ref().map(|timeline| {
        let cell = Arc::new(std::sync::OnceLock::new());
        cell.set(epoch).expect("fresh cell");
        NetChaos {
            timeline: Arc::clone(timeline),
            epoch: cell,
        }
    });
    let network = Network::spawn(
        net_sink,
        cfg.n,
        cfg.d,
        cfg.u,
        cfg.seed,
        net_chaos,
        Arc::clone(&counters),
    );

    let (wheel_tx, wheel_rx) = channel::unbounded::<WheelCmd>();
    let granularity = tick_ns(cfg.u, cfg.d);
    let timer_handle = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("crusader-timer".into())
            .spawn(move || timer_loop(&shared, &wheel_rx, t0, granularity))
            .expect("spawn timer thread")
    };

    // The watchdog nudges stalled nodes back through the urgent lane.
    let watchdog = {
        let shared = Arc::clone(&shared);
        supervise::spawn_watchdog(
            Arc::clone(&heartbeats),
            Arc::clone(&counters),
            supervise::stall_threshold(cfg.d),
            Arc::clone(&stop),
            move |idx| shared.schedule_urgent(idx),
        )
    };

    let (exit_tx, exit_rx) = channel::unbounded::<(WorkerCtx<A>, bool)>();
    let worker_handles: Vec<_> = (0..workers)
        .map(|w| {
            let ctx = WorkerCtx {
                shared: Arc::clone(&shared),
                ready_rx: ready_rx.clone(),
                net: network.link.clone(),
                wheel_tx: wheel_tx.clone(),
                counters: Arc::clone(&counters),
                heartbeats: Arc::clone(&heartbeats),
            };
            spawn_worker(format!("crusader-worker-{w}"), ctx, exit_tx.clone())
        })
        .collect();

    // The supervisor owns the exit channel: a worker that died of a
    // panic (before shutdown began) is replaced by a fresh thread
    // adopting its context — same ready queue, so the dead worker's
    // backlog is picked up by the pool.
    let supervisor = {
        let counters = Arc::clone(&counters);
        let stop = Arc::clone(&stop);
        let exit_tx = exit_tx.clone();
        std::thread::Builder::new()
            .name("crusader-supervisor".into())
            .spawn(move || {
                let mut live = workers;
                let mut generation = 0u64;
                let mut respawned = Vec::new();
                while live > 0 {
                    let Ok((ctx, panicked)) = exit_rx.recv() else {
                        break;
                    };
                    if panicked && !stop.load(Ordering::Acquire) {
                        generation += 1;
                        counters.note_respawn();
                        respawned.push(spawn_worker(
                            format!("crusader-worker-respawn-{generation}"),
                            ctx,
                            exit_tx.clone(),
                        ));
                    } else {
                        live -= 1;
                    }
                }
                for handle in respawned {
                    let _ = handle.join();
                }
            })
            .expect("spawn supervisor thread")
    };
    drop(exit_tx);

    // Kick every live node so its `on_init` runs (lazily, on a worker).
    for i in 0..cfg.n {
        if silent.binary_search(&i).is_err() {
            shared.schedule(i);
        }
    }

    std::thread::sleep(cfg.run_for);

    // Orderly shutdown: Shutdown events first, then one sentinel per
    // worker — FIFO ordering drains all pre-shutdown work first.
    for i in 0..cfg.n {
        if silent.binary_search(&i).is_err() {
            shared.cells[i].inbox.lock().push_back(NodeEvent::Shutdown);
            shared.schedule(i);
        }
    }
    for _ in 0..workers {
        let _ = ready_tx.send(STOP);
    }
    // Panics from here on retire the worker instead of respawning it —
    // the run is over.
    stop.store(true, Ordering::Release);
    let _ = supervisor.join();
    for handle in worker_handles {
        let _ = handle.join();
    }
    let (messages_delivered, chaos_dropped) = network.shutdown();
    let _ = wheel_tx.send(WheelCmd::Stop);
    let _ = timer_handle.join();
    // The watchdog's nudge closure holds the `Shared` handle; join it
    // before harvesting.
    let _ = watchdog.join();

    // Everything is joined: harvest without contention. Events still
    // queued (deliveries that raced shutdown) are counted as discarded,
    // never silently lost.
    let shared = Arc::into_inner(shared).expect("all thread handles joined");
    let mut pulse_log = vec![Vec::new(); cfg.n];
    let mut violations = Vec::new();
    for (i, cell) in shared.cells.into_iter().enumerate() {
        counters.note_discarded(cell.inbox.into_inner().len() as u64);
        if let Some(core) = cell.core.into_inner() {
            let (pulses, viols) = core.into_results();
            pulse_log[i] = pulses;
            violations.extend(viols);
        }
    }
    BackendRun {
        epoch,
        pulse_log,
        violations,
        messages_delivered,
        chaos_dropped,
        supervision: counters.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use crusader_crypto::CarriesSignatures;
    use crusader_sim::{Context, TimerId};
    use crusader_time::{Dur, LocalTime};

    use super::*;
    use crate::{run, Backend};

    #[derive(Clone, Debug)]
    struct Note;
    impl CarriesSignatures for Note {}

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Seen {
        Note,
        Tick,
    }

    /// More than two full quanta, so the cap has to hold twice.
    const BURST: usize = 2 * BATCH_EVENTS + 88;

    /// Node 0 sends node 1 the whole burst from `on_init`; node 1 naps
    /// over every 64th note, long enough for a tick to come due in every
    /// quantum; node 2 ticks every millisecond. Notes and ticks go into
    /// one log in the order the (single) worker ran them.
    struct Crowd {
        notes: usize,
        log: Arc<Mutex<Vec<Seen>>>,
    }

    impl Automaton for Crowd {
        type Msg = Note;

        fn on_init(&mut self, ctx: &mut dyn Context<Note>) {
            match ctx.me().index() {
                0 => (0..BURST).for_each(|_| ctx.send(NodeId::new(1), Note)),
                2 => {
                    ctx.set_timer_at(LocalTime::from_millis(1.0));
                }
                _ => {}
            }
        }

        fn on_message(&mut self, _from: NodeId, _msg: Note, _ctx: &mut dyn Context<Note>) {
            self.log.lock().push(Seen::Note);
            self.notes += 1;
            if self.notes % 64 == 1 {
                std::thread::sleep(Duration::from_millis(2));
            }
        }

        fn on_timer(&mut self, _timer: TimerId, ctx: &mut dyn Context<Note>) {
            self.log.lock().push(Seen::Tick);
            let next = ctx.local_time() + Dur::from_millis(1.0);
            ctx.set_timer_at(next);
        }
    }

    /// One hand-off may put any number of events into an inbox; a quantum
    /// still runs at most `BATCH_EVENTS` of them, and another node's due
    /// timer runs before the next quantum does.
    #[test]
    fn a_hand_off_longer_than_the_cap_is_run_a_quantum_at_a_time() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let cfg = RuntimeConfig {
            // No delay uncertainty: the burst shares its send instant, so
            // it shares its delivery instant, sweep and hand-off too.
            d: Dur::from_millis(20.0),
            u: Dur::ZERO,
            theta: 1.0,
            max_offset: Dur::ZERO,
            run_for: Duration::from_millis(500),
            backend: Backend::Reactor,
            workers: Some(1),
            ..RuntimeConfig::new(3)
        };
        let report = run(&cfg, |_| Crowd {
            notes: 0,
            log: Arc::clone(&log),
        });
        assert!(
            report.trace.violations.is_empty(),
            "{:?}",
            report.trace.violations
        );
        assert_eq!(report.messages_delivered, BURST as u64);
        assert_eq!(report.supervision.net_commands, 1);
        assert_eq!(report.supervision.inbox_handoffs, 1);

        let log = log.lock();
        let notes: Vec<usize> = (0..log.len()).filter(|&i| log[i] == Seen::Note).collect();
        assert_eq!(notes.len(), BURST, "an event was lost or run twice");
        let (first, last) = (notes[0], notes[BURST - 1]);
        let longest = log[first..=last]
            .split(|&seen| seen == Seen::Tick)
            .map(<[Seen]>::len)
            .max()
            .expect("the burst is in the log");
        assert!(
            longest <= BATCH_EVENTS,
            "{longest} handlers of one node ran back to back"
        );
        let ticks_between = last - first + 1 - BURST;
        assert!(
            ticks_between >= 2,
            "{ticks_between} ticks ran between the burst's three quanta"
        );
    }
}
