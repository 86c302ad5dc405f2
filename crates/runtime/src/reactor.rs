//! The reactor: N node tasks on M worker threads.
//!
//! The runtime's one executor multiplexes thousands of [`NodeCore`]
//! state machines onto a small persistent worker pool of long-lived
//! threads fed by channels, one node task per wakeup.
//!
//! ```text
//!             ┌─────────────┐ NetCommand: one per quantum,
//!   handlers ─┤   network   │◄─ its sends, broadcasts and    ┐
//!             │   thread:   │   timers                       │
//!             │ one tick-   │                                │
//!             │ keyed queue │ per occupied tick: one inbox   │
//!             └──────┬──────┘ append + schedule per node     │
//!                    ▼                                       │
//!  ┌───────────────────────────────┐               ┌─────────┴─┐
//!  │ per-node cells                │   ready queue │  workers  │
//!  │  inbox: Mutex<VecDeque<Event>>│──────────────►│  (M long- │
//!  │  queued: AtomicBool           │  (crossbeam   │   lived   │
//!  │  core: Mutex<Option<NodeCore>>│   channel;    │  threads, │
//!  └───────────────────────────────┘   workers     │  parked   │
//!                                      park on     │  on recv) │
//!                                      recv)       └───────────┘
//! ```
//!
//! * **Cells and the ready queue.** Each node is a cell: an inbox, a
//!   `queued` flag, and its [`NodeCore`]. Anyone with events for the
//!   node (network thread, harness) pushes them into the
//!   inbox and *schedules* the cell — a compare-and-swap on `queued`
//!   plus, if it was idle, one send on the shared ready channel. The
//!   network thread does this once per node per delivery sweep — one
//!   sweep per occupied tick — with everything the tick holds for the
//!   node, not once per message.
//!   Workers block on the ready channel (crossbeam parks them when it
//!   is empty), pop a node index, swap the node's inbox against their
//!   own empty scratch queue (the lock is held for the swap only, and
//!   both buffers keep their capacity, so the steady state allocates
//!   nothing), run the events through the node's `NodeCore`, hand
//!   everything the handlers sent and armed to the network as one
//!   command, and clear `queued`. The flag is the node's one ownership
//!   token: set from the schedule that put the node on the ready queue
//!   until its quantum ends, so the node is on the queue at most once
//!   and runs on one worker at a time — its handlers one at a time, the
//!   [`Automaton`] contract.
//! * **Timers.** A timer is an event like a delivery. The worker hands
//!   each armed timer to the network thread with the quantum's messages,
//!   its time queue ([`TimerWheel`](crate::wheel::TimerWheel)) holds it
//!   beside the messages in flight, and when its tick comes it lands in
//!   the node's inbox as a [`NodeEvent::Timer`], behind the deliveries
//!   due before it, and the node is scheduled like any other. It is
//!   never early. It is late by the wait for the network thread's sweep
//!   plus at most one quantum of every other node queued ahead of it,
//!   which is host scheduling jitter like a late delivery (the crate
//!   docs' "the host inflates `u`").
//! * **Fairness.** A worker processes at most [`BATCH_EVENTS`] events
//!   per scheduling, however many one hand-off put into the inbox; what
//!   is left goes back to the front of the inbox and the cell is
//!   re-scheduled at the back of the ready queue (as it is if the inbox
//!   grew while the worker was clearing the flag), so one hot node
//!   cannot starve 2047 others.
//! * **Supervision.** A handler panic is contained per event: the
//!   panicking handler's effects are dropped (what the handlers before
//!   it sent stays in the outbox), the unprocessed tail of
//!   the scratch queue is re-spliced to the *front* of the node's inbox
//!   (no event lost, none delivered twice), and the panic is counted — then
//!   the worker carrying it dies, and the calling thread, which waits on
//!   the workers' exits while the run lasts, respawns a replacement that
//!   adopts the same ready queue, so the dead worker's backlog is picked
//!   up by the pool. Nothing else is supervised. A send to a full
//!   network queue blocks until the network thread makes room
//!   ([`NetLink::send`] says why that wait always ends), and a node
//!   that stopped running its timers shows in its own violation log and
//!   in the checker's period and liveness predicates;
//!   `tests/timer_liveness.rs` fails on a lost timer.
//! * **Shutdown.** The harness pushes `Shutdown` into every inbox,
//!   schedules every cell, then enqueues one sentinel per worker.
//!   Channel FIFO order means every pre-shutdown wakeup drains first;
//!   workers exit on the sentinel (one that panics during shutdown
//!   retires instead of being respawned), then the network thread is
//!   joined, and the pulse logs are harvested from the cells with
//!   everything quiescent — no lock is ever held while converting.

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
use crate::harness::{ReactorRun, RuntimeConfig};
use crate::net::{DeliverySink, NetChaos, NetLink, Network, NodeEvent};
use crate::node::{NodeCore, Outbox};
use crate::supervise::{self, Counters};

/// Max events one scheduling quantum may process before the node goes
/// back to the end of the ready queue.
const BATCH_EVENTS: usize = 256;

/// Ready-queue sentinel telling a worker to exit.
const STOP: u32 = u32::MAX;

struct Cell<A: Automaton> {
    inbox: Mutex<VecDeque<NodeEvent<A::Msg>>>,
    /// Set while the node is on the ready queue or running.
    queued: AtomicBool,
    /// `None` for silent (crashed-from-start) nodes. Only the worker
    /// that holds `queued` locks it, so the lock is never contended.
    core: Mutex<Option<NodeCore<A>>>,
}

struct Shared<A: Automaton> {
    cells: Vec<Cell<A>>,
    /// Immutable after construction: `false` for silent nodes, so the
    /// delivery path never touches a cell's `core` lock.
    active: Vec<bool>,
    ready_tx: Sender<u32>,
}

impl<A: Automaton> Shared<A> {
    /// Puts `idx` on the ready queue unless it is already there.
    fn schedule(&self, idx: usize) {
        if !self.cells[idx].queued.swap(true, Ordering::AcqRel) {
            let _ = self.ready_tx.send(idx as u32);
        }
    }
}

/// The network's way into the cells: one inbox lock and one schedule
/// per hand-off, however many events it carries. Events for silent
/// nodes are dropped here — the node crashed before start, so the bytes
/// would only pile up unread (the network still counts the delivery).
/// Also carries due timers, and the chaos injector's `Freeze`/`Thaw`
/// control events.
struct CellSink<A: Automaton> {
    shared: Arc<Shared<A>>,
    counters: Arc<Counters>,
}

impl<A: Automaton> DeliverySink<A::Msg> for CellSink<A> {
    fn deliver(&mut self, to: NodeId, event: NodeEvent<A::Msg>) {
        self.deliver_batch(to, &mut vec![event]);
    }

    /// A hand-off that carries only timers is not counted in
    /// `inbox_handoffs`, which measures how well deliveries batch.
    fn deliver_batch(&mut self, to: NodeId, events: &mut Vec<NodeEvent<A::Msg>>) {
        let idx = to.index();
        if !self.shared.active[idx] {
            // A silent node's events are not taken.
            events.clear();
            return;
        }
        if !events.iter().all(|e| matches!(e, NodeEvent::Timer(_))) {
            self.counters.note_inbox_handoff();
        }
        self.shared.cells[idx].inbox.lock().extend(events.drain(..));
        self.shared.schedule(idx);
    }
}

/// Everything a worker thread needs to run nodes. The supervising caller
/// moves a dead worker's context into its replacement, so the replacement
/// adopts the same ready queue (and with it the dead worker's backlog).
struct WorkerCtx<A: Automaton> {
    shared: Arc<Shared<A>>,
    ready_rx: Receiver<u32>,
    net: NetLink<A::Msg>,
    counters: Arc<Counters>,
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

/// Runs one handler call with panic capture: drops the effects of the
/// handler that panicked, counts the panic, records it as a violation
/// on the node (injected drills excepted) and hands the payload back so
/// the worker can die with it — the supervising caller respawns a
/// replacement.
fn guarded<A: Automaton, R>(
    core: &mut NodeCore<A>,
    out: &mut Outbox<A::Msg>,
    counters: &Counters,
    f: impl FnOnce(&mut NodeCore<A>, &mut Outbox<A::Msg>) -> R,
) -> Result<R, Box<dyn Any + Send>> {
    match catch_unwind(AssertUnwindSafe(|| f(core, out))) {
        Ok(r) => Ok(r),
        Err(payload) => {
            core.discard_effects();
            counters.note_panic();
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
/// A handler panic does not lose state: only the panicking handler's
/// effects are dropped, the unprocessed tail of the scratch queue goes back
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
    {
        let mut guard = cell.core.lock();
        let Some(core) = guard.as_mut() else {
            cell.queued.store(false, Ordering::Release);
            return Ok(());
        };
        if core.done {
            let leftover = cell.inbox.lock().drain(..).count();
            ctx.counters.note_discarded(leftover as u64);
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
        out.flush(core.me(), &ctx.net);
    }
    cell.queued.store(false, Ordering::Release);
    // Events that arrived between the inbox drain and the flag clear (or
    // past the batch cap, or requeued by a panic) re-schedule the node.
    if !cell.inbox.lock().is_empty() {
        shared.schedule(idx);
    }
    match panic_payload {
        Some(p) => Err(p),
        None => Ok(()),
    }
}

/// A worker's main loop: run ready nodes in queue order. A node panic is
/// re-raised here — the worker dies with it and the supervising caller
/// respawns a replacement.
fn worker_main<A: Automaton>(ctx: &WorkerCtx<A>) {
    let mut out = Outbox::default();
    let mut scratch = VecDeque::new();
    while let Ok(idx) = ctx.ready_rx.recv() {
        if idx == STOP {
            return;
        }
        if let Err(p) = run_node(ctx, idx as usize, &mut out, &mut scratch) {
            std::panic::resume_unwind(p);
        }
    }
}

/// Spawns one worker thread. On exit — clean or by panic — the worker
/// reports `(its context, panicked)` to the supervising caller through
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

/// Runs the configured system: draws each active node's clock rate and
/// offset from `rng` in node order, runs for `cfg.run_for`, shuts down
/// and harvests the pulse logs.
pub(crate) fn run<A, F>(
    cfg: &RuntimeConfig,
    silent: &[usize],
    ring: &KeyRing,
    rng: &mut SmallRng,
    mut make_node: F,
) -> ReactorRun
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
    let counters = Arc::new(Counters::default());
    // The epoch is a hair in the future so every clock starts at its
    // configured offset.
    let epoch = Instant::now() + Duration::from_millis(2);
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
            core: Mutex::new(core),
        });
    }
    let shared = Arc::new(Shared {
        cells,
        active,
        ready_tx: ready_tx.clone(),
    });

    let net_sink = CellSink {
        shared: Arc::clone(&shared),
        counters: Arc::clone(&counters),
    };
    let net_chaos = cfg.chaos.as_ref().map(|timeline| NetChaos {
        timeline: Arc::clone(timeline),
        epoch,
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

    let (exit_tx, exit_rx) = channel::unbounded::<(WorkerCtx<A>, bool)>();
    let mut worker_handles: Vec<_> = (0..workers)
        .map(|w| {
            let ctx = WorkerCtx {
                shared: Arc::clone(&shared),
                ready_rx: ready_rx.clone(),
                net: network.link.clone(),
                counters: Arc::clone(&counters),
            };
            spawn_worker(format!("crusader-worker-{w}"), ctx, exit_tx.clone())
        })
        .collect();

    // Kick every live node so its `on_init` runs (lazily, on a worker).
    for i in 0..cfg.n {
        if silent.binary_search(&i).is_err() {
            shared.schedule(i);
        }
    }

    // Supervise until `run_for` is up: a worker that died of a panic is
    // replaced by a fresh thread adopting its context (module docs,
    // *Supervision*).
    let stop_at = Instant::now() + cfg.run_for;
    let mut generation = 0u64;
    while let Ok((ctx, panicked)) = exit_rx.recv_deadline(stop_at) {
        if panicked {
            generation += 1;
            counters.note_respawn();
            worker_handles.push(spawn_worker(
                format!("crusader-worker-respawn-{generation}"),
                ctx,
                exit_tx.clone(),
            ));
        }
    }

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
    // From here on an exiting worker retires, panicked or not — the run
    // is over. The drain ends once every worker has exited.
    drop(exit_tx);
    while exit_rx.recv().is_ok() {}
    for handle in worker_handles {
        let _ = handle.join();
    }
    let (messages_delivered, chaos_dropped) = network.shutdown();

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
    ReactorRun {
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
    use crate::{run, RuntimeReport};

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

    /// Node 0 sends each of nodes `1..=bursting` the whole burst from
    /// `on_init`; they nap over every 64th note, long enough for a tick to
    /// come due in every quantum; the last node ticks every millisecond.
    /// Notes and ticks go into one log in the order the (single) worker
    /// ran them.
    struct Crowd {
        bursting: usize,
        notes: usize,
        log: Arc<Mutex<Vec<Seen>>>,
    }

    impl Automaton for Crowd {
        type Msg = Note;

        fn on_init(&mut self, ctx: &mut dyn Context<Note>) {
            let me = ctx.me().index();
            if me == 0 {
                for to in 1..=self.bursting {
                    (0..BURST).for_each(|_| ctx.send(NodeId::new(to), Note));
                }
            } else if me == self.bursting + 1 {
                ctx.set_timer_at(LocalTime::from_millis(1.0));
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

    /// Runs a [`Crowd`] with `bursting` bursting nodes on one worker and
    /// returns its report and log, checked for violations and for every
    /// note run exactly once.
    fn crowd(bursting: usize) -> (RuntimeReport, Vec<Seen>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let cfg = RuntimeConfig {
            // No delay uncertainty: the bursts share their send instant,
            // so they share their delivery instant and sweep too.
            d: Dur::from_millis(20.0),
            u: Dur::ZERO,
            theta: 1.0,
            max_offset: Dur::ZERO,
            run_for: Duration::from_millis(500),
            workers: Some(1),
            ..RuntimeConfig::new(bursting + 2)
        };
        let report = run(&cfg, |_| Crowd {
            bursting,
            notes: 0,
            log: Arc::clone(&log),
        });
        assert!(
            report.trace.violations.is_empty(),
            "{:?}",
            report.trace.violations
        );
        assert_eq!(report.messages_delivered, (bursting * BURST) as u64);
        let log = std::mem::take(&mut *log.lock());
        let notes = log.iter().filter(|&&seen| seen == Seen::Note).count();
        assert_eq!(notes, bursting * BURST, "an event was lost or run twice");
        (report, log)
    }

    /// The notes from the first to the last, and the longest run of them
    /// between two ticks.
    fn notes_between_ticks(log: &[Seen]) -> (&[Seen], usize) {
        let first = log.iter().position(|&seen| seen == Seen::Note);
        let last = log.iter().rposition(|&seen| seen == Seen::Note);
        let burst = &log[first.expect("a note")..=last.expect("a note")];
        let longest = burst.split(|&seen| seen == Seen::Tick).map(<[Seen]>::len);
        (burst, longest.max().expect("the burst is in the log"))
    }

    /// One hand-off may put any number of events into an inbox; a quantum
    /// still runs at most `BATCH_EVENTS` of them. A timer that came due
    /// during a quantum runs before the next one does, because the
    /// bursting node goes back on the ready queue behind the ticking one.
    #[test]
    fn a_hand_off_longer_than_the_cap_is_run_a_quantum_at_a_time() {
        let (report, log) = crowd(1);
        assert_eq!(report.supervision.net_commands, 1);
        assert_eq!(report.supervision.inbox_handoffs, 1);
        let (burst, longest) = notes_between_ticks(&log);
        assert!(
            longest <= BATCH_EVENTS,
            "{longest} handlers of one node ran back to back"
        );
        let ticks_between = burst.len() - BURST;
        assert!(
            ticks_between >= 2,
            "{ticks_between} ticks ran between the burst's three quanta"
        );
    }

    /// The ready queue is FIFO and holds each node at most once, so a due
    /// timer waits behind at most one quantum of every other queued node:
    /// with two nodes bursting, at most two quanta run between two ticks.
    #[test]
    fn a_due_timer_waits_at_most_one_quantum_of_each_queued_node() {
        let (_, log) = crowd(2);
        let (_, longest) = notes_between_ticks(&log);
        assert!(
            longest <= 2 * BATCH_EVENTS,
            "{longest} notes ran between two ticks"
        );
    }
}
