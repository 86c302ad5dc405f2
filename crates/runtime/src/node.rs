//! The per-node protocol driver.
//!
//! [`NodeCore`] owns everything one node needs to run its
//! [`Automaton`]: the automaton itself, the node's emulated drifting
//! clock, its pending local-time timers, and its signing/verifying
//! capabilities. The reactor drives its methods from whichever worker
//! thread the node's task is scheduled on.
//!
//! Handlers run against the simulator's [`NodeCtx`], so they see the
//! same context on every executor. The core applies a handler's effects
//! only after it returns: sends go to the worker's outbox, timers to the
//! node's heap, pulses and violations to logs buffered *inside* the core
//! and harvested once at shutdown, so the hot path takes no shared lock.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use crusader_crypto::{NodeId, Signer, Verifier};
use crusader_sim::{Automaton, Call, Effect, NodeCtx, RunObserver, TimerId, TimerSlab};
use crusader_time::{LocalTime, Time};

use crate::clock::EmulatedClock;
use crate::net::{NetCommand, NetLink, NodeEvent};
use crate::supervise;

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

/// The effect-buffer capacity a core keeps between handlers.
const EFFECTS_KEPT: usize = 64;

/// One node's complete runtime state.
pub(crate) struct NodeCore<A: Automaton> {
    automaton: A,
    me: NodeId,
    n: usize,
    clock: EmulatedClock,
    signer: Arc<dyn Signer>,
    verifier: Arc<dyn Verifier>,
    /// The ids of the armed timers neither fired nor cancelled: a heap
    /// entry fires only if the slab still holds its id.
    timers: TimerSlab,
    /// Every armed timer by local fire time, cancelled ones included until
    /// they surface.
    deadlines: BinaryHeap<Reverse<(LocalTime, TimerId)>>,
    /// The running handler's effects (pooled across handlers).
    effects: Vec<Effect<A::Msg>>,
    /// Pulse observations `(index, host instant)`, harvested at shutdown.
    pulses: Vec<(u64, Instant)>,
    /// Violations (prefixed with the node id), harvested at shutdown.
    violations: Vec<String>,
    /// Whether `on_init` ran (the reactor initializes lazily, on the
    /// node's first scheduling).
    inited: bool,
    /// Chaos-crashed: deliveries are dropped and no timer fires until a
    /// [`NodeEvent::Thaw`] arrives, which cancels every pending timer
    /// before the recovery hook runs.
    frozen: bool,
    /// Continuous run observer plus the run epoch used to convert host
    /// instants to scenario [`Time`]s. `None` outside chaos runs.
    observer: Option<(Arc<dyn RunObserver>, Instant)>,
    /// Set once the node saw `Shutdown`; further events are ignored.
    pub done: bool,
    /// The wheel deadline this node last registered with the network
    /// thread (`None` = no pending wakeup).
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
            timers: TimerSlab::new(),
            deadlines: BinaryHeap::new(),
            effects: Vec::new(),
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

    /// Runs one handler, then applies its effects. A handler that panics
    /// leaves them in `effects` for [`discard_effects`](Self::discard_effects).
    fn dispatch(&mut self, call: Call<A::Msg>, out: &mut Outbox<A::Msg>) {
        call.run(
            &mut self.automaton,
            &mut NodeCtx::new(
                self.me,
                self.n,
                self.clock.read(Instant::now()),
                &*self.signer,
                &*self.verifier,
                &mut self.timers,
                &mut self.effects,
            ),
        );
        let mut effects = std::mem::take(&mut self.effects);
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => out.sends.push((to, msg)),
                Effect::Broadcast { msg } => out.broadcasts.push(msg),
                Effect::SetTimer { id, at } => self.deadlines.push(Reverse((at, id))),
                Effect::CancelTimer { id } => {
                    self.timers.cancel(id);
                }
                Effect::Pulse { index } => {
                    let now = Instant::now();
                    if let Some((obs, epoch)) = &self.observer {
                        obs.on_pulse(self.me, index, scenario_time(*epoch, now));
                    }
                    self.pulses.push((index, now));
                }
                Effect::Violation(text) => self.note_violation(&text),
            }
        }
        // A core keeps its buffer between handlers, but not the room an
        // outsized one needed: a fleet whose nodes each send a thousand
        // messages from `on_init` would hold megabytes of idle capacity.
        effects.shrink_to(EFFECTS_KEPT);
        self.effects = effects;
    }

    /// Drops the effects of a handler that panicked: none reaches the
    /// outbox, and the timers it armed are released.
    pub fn discard_effects(&mut self) {
        for effect in self.effects.drain(..) {
            if let Effect::SetTimer { id, .. } = effect {
                self.timers.cancel(id);
            }
        }
    }

    /// Runs `on_init` (idempotent).
    pub fn init(&mut self, out: &mut Outbox<A::Msg>) {
        if !self.inited {
            self.inited = true;
            self.dispatch(Call::Init, out);
        }
    }

    /// Feeds one event to the automaton. Returns `false` on `Shutdown`
    /// (the core marks itself `done`).
    pub fn on_event(&mut self, event: NodeEvent<A::Msg>, out: &mut Outbox<A::Msg>) -> bool {
        if self.done {
            return false;
        }
        match event {
            NodeEvent::Freeze => self.frozen = true,
            NodeEvent::Thaw => {
                self.frozen = false;
                // Stale-state rejoin fix: timers armed before the crash
                // must not fire into the rejoin handshake — drop
                // everything pending before the automaton's recovery hook
                // re-arms what it needs.
                for Reverse((_, id)) in self.deadlines.drain() {
                    self.timers.cancel(id);
                }
                self.dispatch(Call::Recover, out);
            }
            // A crashed node runs no handlers: deliveries to it are
            // simply lost, as in the simulator — and a panic drill
            // aimed at a crashed node fizzles.
            NodeEvent::PanicInject | NodeEvent::Deliver { .. } if self.frozen => {}
            NodeEvent::PanicInject => {
                panic!(
                    "{}: node {} panicked on schedule",
                    supervise::INJECTED_PANIC_PREFIX,
                    self.me
                );
            }
            NodeEvent::Deliver { from, msg } => self.dispatch(Call::Message { from, msg }, out),
            NodeEvent::Shutdown => {
                self.done = true;
                return false;
            }
        }
        true
    }

    /// Fires every timer due by the node's emulated clock. A frozen
    /// node fires nothing.
    pub fn fire_due(&mut self, out: &mut Outbox<A::Msg>) {
        if self.done || self.frozen {
            return;
        }
        while let Some(&Reverse((at, id))) = self.deadlines.peek() {
            if at > self.clock.read(Instant::now()) {
                return;
            }
            self.deadlines.pop();
            if self.timers.fire(id) {
                self.dispatch(Call::Timer(id), out);
            }
        }
    }

    /// The host instant of the earliest pending (uncancelled) timer.
    /// `None` while frozen: the node has no wakeups of its own and
    /// resumes only on the `Thaw` event.
    pub fn next_deadline(&mut self) -> Option<Instant> {
        if self.frozen {
            return None;
        }
        while let Some(&Reverse((at, id))) = self.deadlines.peek() {
            if self.timers.is_armed(id) {
                return Some(self.clock.when(at));
            }
            self.deadlines.pop();
        }
        None
    }

    /// Records a violation: a handler's, or one from outside a handler
    /// (the reactor logs contained handler panics against the node).
    pub fn note_violation(&mut self, text: &str) {
        if let Some((obs, epoch)) = &self.observer {
            obs.on_violation(Some(self.me), text, scenario_time(*epoch, Instant::now()));
        }
        self.violations.push(format!("{}: {text}", self.me));
    }

    /// Surrenders the buffered pulse log and violations.
    pub fn into_results(self) -> (Vec<(u64, Instant)>, Vec<String>) {
        (self.pulses, self.violations)
    }
}

/// The scenario time of host instant `now` in a run that started at
/// `epoch`.
fn scenario_time(epoch: Instant, now: Instant) -> Time {
    Time::from_secs(now.saturating_duration_since(epoch).as_secs_f64())
}

#[cfg(test)]
mod tests {
    use crusader_crypto::KeyRing;
    use crusader_sim::Context;
    use crusader_time::Dur;

    use super::*;

    /// Arms 1 000 timers due at once and counts them as they fire; a
    /// message cancels every one of them.
    struct Alarms(Vec<TimerId>, usize);

    impl Automaton for Alarms {
        type Msg = ();

        fn on_init(&mut self, ctx: &mut dyn Context<()>) {
            self.0 = (0..1_000).map(|_| ctx.set_timer_at(LocalTime::ZERO)).collect();
        }

        fn on_message(&mut self, _from: NodeId, _msg: (), ctx: &mut dyn Context<()>) {
            self.0.iter().for_each(|&id| ctx.cancel_timer(id));
        }

        fn on_timer(&mut self, _timer: TimerId, _ctx: &mut dyn Context<()>) {
            self.1 += 1;
        }
    }

    #[test]
    fn cancelling_fired_timers_leaves_no_per_timer_state() {
        let (ring, me) = (KeyRing::symbolic(1, 0), NodeId::new(0));
        let clock = EmulatedClock::new(Instant::now(), Dur::ZERO, 1.0);
        let alarms = Alarms(Vec::new(), 0);
        let mut core = NodeCore::new(alarms, me, 1, clock, ring.signer(me), ring.verifier());
        let mut out = Outbox::default();
        core.init(&mut out);
        core.fire_due(&mut out);
        assert_eq!(core.automaton.1, 1_000);
        assert!(core.on_event(NodeEvent::Deliver { from: me, msg: () }, &mut out));
        assert_eq!(core.next_deadline(), None);
        assert!(core.deadlines.is_empty());
        assert_eq!(core.timers.live(), 0, "{} ids kept", core.timers.live());
    }
}
