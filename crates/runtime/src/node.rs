//! The per-node protocol driver.
//!
//! [`NodeCore`] owns everything one node needs to run its
//! [`Automaton`]: the automaton itself, the node's emulated drifting
//! clock, its pending local-time timers, and its signing/verifying
//! capabilities. The reactor drives its methods from whichever worker
//! thread the node's task is scheduled on.
//!
//! Pulses and violations are buffered *inside* the core and harvested
//! once at shutdown: the hot path takes no shared lock (the seed
//! implementation funnelled every pulse through one global
//! `Mutex<Vec<…>>`, which at thousands of nodes is a scalability bug,
//! and converted the log to a [`Trace`](crusader_sim::Trace) while still
//! holding it).

use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use crusader_crypto::{NodeId, Signer, Verifier};
use crusader_sim::{Automaton, Context, RunObserver, TimerId};
use crusader_time::{LocalTime, Time};

use crate::clock::EmulatedClock;
use crate::net::{NetCommand, NetLink, NodeEvent};
use crate::supervise;

struct PendingTimer {
    fire_local: LocalTime,
    id: TimerId,
}

impl PartialEq for PendingTimer {
    fn eq(&self, other: &Self) -> bool {
        self.fire_local == other.fire_local && self.id == other.id
    }
}
impl Eq for PendingTimer {}
impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by local fire time.
        other
            .fire_local
            .cmp(&self.fire_local)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// Messages handlers produced, to be flushed to the network by the
/// worker once the quantum's handlers have returned. Broadcasts stay a
/// *single* value here and on the wire to the network thread; the
/// fan-out (and the per-destination delay draws) happens inside the
/// network, so a 2048-node broadcast costs one channel send, not 2048.
pub(crate) struct Outbox<M> {
    pub sends: Vec<(NodeId, M)>,
    pub broadcasts: Vec<M>,
}

// Manual impl: `derive(Default)` would demand `M: Default`.
impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox {
            sends: Vec::new(),
            broadcasts: Vec::new(),
        }
    }
}

impl<M> Outbox<M> {
    /// Hands everything buffered to the network link as **one** command
    /// (the link retries with backoff if the network queue is full).
    /// More than one message travels as the outbox itself, swapped for
    /// a recycled empty one so that neither side allocates; a lone
    /// message needs no buffer and goes as a bare `Send`/`Broadcast`.
    pub fn flush(&mut self, from: NodeId, net: &NetLink<M>) {
        let cmd = match (self.sends.len(), self.broadcasts.len()) {
            (0, 0) => return,
            (1, 0) => {
                let (to, msg) = self.sends.pop().expect("one send");
                NetCommand::Send { from, to, msg }
            }
            (0, 1) => {
                let msg = self.broadcasts.pop().expect("one broadcast");
                NetCommand::Broadcast { from, msg }
            }
            _ => {
                let out = std::mem::replace(self, net.spare_outbox());
                NetCommand::Batch { from, out }
            }
        };
        net.send(cmd);
    }
}

struct RtCtx<'a, M> {
    me: NodeId,
    n: usize,
    now_local: LocalTime,
    signer: &'a dyn Signer,
    verifier: &'a dyn Verifier,
    next_timer: &'a mut u64,
    sends: &'a mut Vec<(NodeId, M)>,
    broadcasts: &'a mut Vec<M>,
    timers: Vec<(TimerId, LocalTime)>,
    cancels: Vec<TimerId>,
    pulses: Vec<u64>,
    violations: Vec<String>,
}

impl<'a, M: Clone> Context<M> for RtCtx<'a, M> {
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
        self.sends.push((to, msg));
    }
    fn broadcast(&mut self, msg: M) {
        self.broadcasts.push(msg);
    }
    fn set_timer_at(&mut self, at: LocalTime) -> TimerId {
        let id = TimerId::new(*self.next_timer);
        *self.next_timer += 1;
        self.timers.push((id, at));
        id
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        self.cancels.push(timer);
    }
    fn pulse(&mut self, index: u64) {
        self.pulses.push(index);
    }
    fn signer(&self) -> &dyn Signer {
        self.signer
    }
    fn verifier(&self) -> &dyn Verifier {
        self.verifier
    }
    fn mark_violation(&mut self, description: String) {
        self.violations.push(description);
    }
}

/// One node's complete runtime state.
pub(crate) struct NodeCore<A: Automaton> {
    automaton: A,
    me: NodeId,
    n: usize,
    clock: EmulatedClock,
    signer: Arc<dyn Signer>,
    verifier: Arc<dyn Verifier>,
    timers: BinaryHeap<PendingTimer>,
    cancelled: HashSet<TimerId>,
    next_timer_raw: u64,
    /// Pulse observations `(index, host instant)`, harvested at shutdown.
    pulses: Vec<(u64, Instant)>,
    /// Violations (prefixed with the node id), harvested at shutdown.
    violations: Vec<String>,
    /// Whether `on_init` ran (the reactor initializes lazily, on the
    /// node's first scheduling).
    inited: bool,
    /// Chaos-crashed: deliveries are dropped and timers deferred until
    /// a [`NodeEvent::Thaw`] arrives (they then fire at the recovery
    /// instant, mirroring the simulator's crash semantics).
    frozen: bool,
    /// Continuous run observer plus the run epoch used to convert host
    /// instants to scenario [`Time`]s. `None` outside chaos runs.
    observer: Option<(Arc<dyn RunObserver>, Instant)>,
    /// Set once the node saw `Shutdown`; further events are ignored.
    pub done: bool,
    /// The wheel deadline this node last registered with the reactor's
    /// timer thread (`None` = no pending wakeup).
    pub registered_wakeup: Option<Instant>,
}

impl<A: Automaton> NodeCore<A> {
    pub fn new(
        automaton: A,
        me: NodeId,
        n: usize,
        clock: EmulatedClock,
        signer: Arc<dyn Signer>,
        verifier: Arc<dyn Verifier>,
    ) -> Self {
        NodeCore {
            automaton,
            me,
            n,
            clock,
            signer,
            verifier,
            timers: BinaryHeap::new(),
            cancelled: HashSet::new(),
            next_timer_raw: (me.index() as u64) << 40, // node-unique ids
            pulses: Vec::new(),
            violations: Vec::new(),
            inited: false,
            frozen: false,
            observer: None,
            done: false,
            registered_wakeup: None,
        }
    }

    /// Installs a continuous run observer; `epoch` anchors the
    /// host-instant → scenario-time conversion for its callbacks.
    pub fn set_observer(&mut self, observer: Arc<dyn RunObserver>, epoch: Instant) {
        self.observer = Some((observer, epoch));
    }

    pub fn me(&self) -> NodeId {
        self.me
    }

    fn dispatch(
        &mut self,
        event: Option<NodeEvent<A::Msg>>,
        fired: Option<TimerId>,
        out: &mut Outbox<A::Msg>,
    ) -> bool {
        let now_local = self.clock.read(Instant::now());
        let mut ctx = RtCtx {
            me: self.me,
            n: self.n,
            now_local,
            signer: &*self.signer,
            verifier: &*self.verifier,
            next_timer: &mut self.next_timer_raw,
            sends: &mut out.sends,
            broadcasts: &mut out.broadcasts,
            timers: Vec::new(),
            cancels: Vec::new(),
            pulses: Vec::new(),
            violations: Vec::new(),
        };
        match (event, fired) {
            (Some(NodeEvent::Deliver { from, msg }), _) => {
                self.automaton.on_message(from, msg, &mut ctx);
            }
            (Some(NodeEvent::Shutdown), _) => return false,
            // Thaw reaches dispatch as the recovery notification; the
            // automaton clears its own stale state (inboxes, signature
            // memos) and re-arms from scratch.
            (Some(NodeEvent::Thaw), _) => self.automaton.on_recover(&mut ctx),
            // Freeze and panic drills are consumed in `on_event`.
            (Some(NodeEvent::Freeze | NodeEvent::PanicInject), _) => {}
            (None, Some(id)) => self.automaton.on_timer(id, &mut ctx),
            (None, None) => self.automaton.on_init(&mut ctx),
        }
        let RtCtx {
            timers: new_timers,
            cancels,
            pulses,
            violations: new_violations,
            ..
        } = ctx;
        for id in cancels {
            self.cancelled.insert(id);
        }
        for (id, at) in new_timers {
            self.timers.push(PendingTimer {
                fire_local: at,
                id,
            });
        }
        if !pulses.is_empty() {
            let now = Instant::now();
            if let Some((obs, epoch)) = &self.observer {
                let at = Time::from_secs(now.saturating_duration_since(*epoch).as_secs_f64());
                for idx in &pulses {
                    obs.on_pulse(self.me, *idx, at);
                }
            }
            self.pulses.extend(pulses.into_iter().map(|idx| (idx, now)));
        }
        if !new_violations.is_empty() {
            if let Some((obs, epoch)) = &self.observer {
                let at = Time::from_secs(
                    Instant::now()
                        .saturating_duration_since(*epoch)
                        .as_secs_f64(),
                );
                for v in &new_violations {
                    obs.on_violation(Some(self.me), v, at);
                }
            }
            self.violations.extend(
                new_violations
                    .into_iter()
                    .map(|v| format!("{}: {v}", self.me)),
            );
        }
        true
    }

    /// Runs `on_init` (idempotent).
    pub fn init(&mut self, out: &mut Outbox<A::Msg>) {
        if !self.inited {
            self.inited = true;
            self.dispatch(None, None, out);
        }
    }

    /// Feeds one event to the automaton. Returns `false` on `Shutdown`
    /// (the core marks itself `done`).
    pub fn on_event(&mut self, event: NodeEvent<A::Msg>, out: &mut Outbox<A::Msg>) -> bool {
        if self.done {
            return false;
        }
        match event {
            NodeEvent::Freeze => {
                self.frozen = true;
                return true;
            }
            NodeEvent::Thaw => {
                self.frozen = false;
                // Stale-state rejoin fix: timers armed before the crash
                // (and their cancel bookkeeping) must not fire into the
                // rejoin handshake — drop everything pending before the
                // automaton's recovery hook re-arms what it needs.
                self.timers.clear();
                self.cancelled.clear();
                self.dispatch(Some(NodeEvent::Thaw), None, out);
                return true;
            }
            // A crashed node runs no handlers: deliveries to it are
            // simply lost, as in the simulator — and a panic drill
            // aimed at a crashed node fizzles.
            NodeEvent::PanicInject if self.frozen => return true,
            NodeEvent::PanicInject => {
                panic!(
                    "{}: node {} panicked on schedule",
                    supervise::INJECTED_PANIC_PREFIX,
                    self.me
                );
            }
            NodeEvent::Deliver { .. } if self.frozen => return true,
            event => {
                if !self.dispatch(Some(event), None, out) {
                    self.done = true;
                    return false;
                }
            }
        }
        true
    }

    /// Fires every timer due by the node's emulated clock. A frozen
    /// node fires nothing — its due timers wait for the thaw.
    pub fn fire_due(&mut self, out: &mut Outbox<A::Msg>) {
        if self.done || self.frozen {
            return;
        }
        loop {
            let now_local = self.clock.read(Instant::now());
            let due = self
                .timers
                .peek()
                .is_some_and(|t| t.fire_local <= now_local);
            if !due {
                return;
            }
            let t = self.timers.pop().expect("peeked");
            if self.cancelled.remove(&t.id) {
                continue;
            }
            self.dispatch(None, Some(t.id), out);
        }
    }

    /// The host instant of the earliest pending (uncancelled) timer.
    /// `None` while frozen: the node has no wakeups of its own and
    /// resumes only on the `Thaw` event.
    pub fn next_deadline(&mut self) -> Option<Instant> {
        if self.frozen {
            return None;
        }
        while let Some(t) = self.timers.peek() {
            if self.cancelled.contains(&t.id) {
                let t = self.timers.pop().expect("peeked");
                self.cancelled.remove(&t.id);
                continue;
            }
            return Some(self.clock.when(t.fire_local));
        }
        None
    }

    /// Records a violation from outside a handler context — the
    /// reactor uses it to log contained handler panics against the
    /// node.
    pub fn note_violation(&mut self, text: &str) {
        if let Some((obs, epoch)) = &self.observer {
            let at = Time::from_secs(
                Instant::now()
                    .saturating_duration_since(*epoch)
                    .as_secs_f64(),
            );
            obs.on_violation(Some(self.me), text, at);
        }
        self.violations.push(format!("{}: {text}", self.me));
    }

    /// Surrenders the buffered pulse log and violations.
    pub fn into_results(self) -> (Vec<(u64, Instant)>, Vec<String>) {
        (self.pulses, self.violations)
    }
}
