//! The per-node protocol driver.
//!
//! [`NodeCore`] owns everything one node needs to run its
//! [`Automaton`]: the automaton itself, the node's emulated drifting
//! clock, the ids of its pending timers, and its signing/verifying
//! capabilities. The reactor drives its methods from whichever worker
//! thread the node's task is scheduled on.
//!
//! Handlers run against the simulator's [`NodeCtx`], so they see the
//! same context on every executor. The core applies a handler's effects
//! only after it returns: sends go to the worker's outbox, and so do
//! timers, each as the host instant its deadline falls on, for the
//! network thread's time queue; pulses and violations go to logs
//! buffered *inside* the core and harvested once at shutdown, so the hot
//! path takes no shared lock.

use std::sync::Arc;
use std::time::Instant;

use crusader_crypto::{NodeId, Signer, Verifier};
use crusader_sim::{Automaton, Call, Effect, NodeCtx, RunObserver, TimerId, TimerSlab};
use crusader_time::Time;

use crate::clock::EmulatedClock;
use crate::net::{NetCommand, NetLink, NodeEvent};
use crate::supervise;

/// Messages and timers handlers produced, to be flushed to the network
/// by the worker once the quantum's handlers have returned. Broadcasts
/// stay a *single* value here and on the wire to the network thread; the
/// fan-out (and the per-destination delay draws) happens inside the
/// network, so a 2048-node broadcast costs one channel send, not 2048.
pub(crate) struct Outbox<M> {
    pub sends: Vec<(NodeId, M)>,
    pub broadcasts: Vec<M>,
    /// Timers armed, each with the first host instant at which the
    /// node's clock reads its deadline.
    pub timers: Vec<(Instant, TimerId)>,
}

// Manual impl: `derive(Default)` would demand `M: Default`.
impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox {
            sends: Vec::new(),
            broadcasts: Vec::new(),
            timers: Vec::new(),
        }
    }
}

impl<M> Outbox<M> {
    /// Hands everything buffered to the network link as **one**
    /// [`NetCommand::Batch`], the outbox itself, swapped for a recycled
    /// empty one so that neither side allocates. The link blocks while
    /// the network queue is full. An empty outbox sends nothing.
    pub fn flush(&mut self, from: NodeId, net: &NetLink<M>) {
        if self.sends.is_empty() && self.broadcasts.is_empty() && self.timers.is_empty() {
            return;
        }
        let out = std::mem::replace(self, net.spare_outbox());
        net.send(NetCommand::Batch { from, out });
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
    /// The ids of the armed timers neither fired nor cancelled: a
    /// [`NodeEvent::Timer`] runs its handler only if the slab still
    /// holds its id.
    timers: TimerSlab,
    /// The running handler's effects (pooled across handlers).
    effects: Vec<Effect<A::Msg>>,
    /// Pulse observations `(index, host instant)`, harvested at shutdown.
    pulses: Vec<(u64, Instant)>,
    /// Violations (prefixed with the node id), harvested at shutdown.
    violations: Vec<String>,
    /// Whether `on_init` ran (the reactor initializes lazily, on the
    /// node's first scheduling).
    inited: bool,
    /// Chaos-crashed: deliveries and timers are dropped until a
    /// [`NodeEvent::Thaw`] arrives, which cancels every pending timer
    /// before the recovery hook runs.
    frozen: bool,
    /// Continuous run observer plus the run epoch used to convert host
    /// instants to scenario [`Time`]s. `None` outside chaos runs.
    observer: Option<(Arc<dyn RunObserver>, Instant)>,
    /// Set once the node saw `Shutdown`; further events are ignored.
    pub done: bool,
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
            effects: Vec::new(),
            pulses: Vec::new(),
            violations: Vec::new(),
            inited: false,
            frozen: false,
            observer: None,
            done: false,
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
                Effect::SetTimer { id, at } => out.timers.push((self.clock.when(at), id)),
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
                // re-arms what it needs. Their queue entries still come
                // due, and find their ids stale.
                self.timers.cancel_all();
                self.dispatch(Call::Recover, out);
            }
            // A crashed node runs no handlers: deliveries to it are
            // simply lost, as in the simulator; its due timers are lost
            // too (module docs of `net`, *Timers*); and a panic drill
            // aimed at a crashed node fizzles.
            NodeEvent::PanicInject | NodeEvent::Deliver { .. } | NodeEvent::Timer(_)
                if self.frozen => {}
            NodeEvent::PanicInject => {
                panic!(
                    "{}: node {} panicked on schedule",
                    supervise::INJECTED_PANIC_PREFIX,
                    self.me
                );
            }
            NodeEvent::Deliver { from, msg } => self.dispatch(Call::Message { from, msg }, out),
            // A stale id was cancelled after its entry was queued.
            NodeEvent::Timer(id) => {
                if self.timers.fire(id) {
                    self.dispatch(Call::Timer(id), out);
                }
            }
            NodeEvent::Shutdown => {
                self.done = true;
                return false;
            }
        }
        true
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
    use crusader_time::{Dur, LocalTime};

    use super::*;

    /// Arms 1 000 timers due at once and counts them as they fire; a
    /// message cancels every one of them.
    struct Alarms(Vec<TimerId>, usize);

    impl Automaton for Alarms {
        type Msg = ();

        fn on_init(&mut self, ctx: &mut dyn Context<()>) {
            self.0 = (0..1_000)
                .map(|_| ctx.set_timer_at(LocalTime::ZERO))
                .collect();
        }

        fn on_message(&mut self, _from: NodeId, _msg: (), ctx: &mut dyn Context<()>) {
            self.0.iter().for_each(|&id| ctx.cancel_timer(id));
        }

        fn on_timer(&mut self, _timer: TimerId, _ctx: &mut dyn Context<()>) {
            self.1 += 1;
        }
    }

    fn core<A: Automaton>(automaton: A) -> NodeCore<A> {
        let (ring, me) = (KeyRing::symbolic(1, 0), NodeId::new(0));
        let clock = EmulatedClock::new(Instant::now(), Dur::ZERO, 1.0);
        NodeCore::new(automaton, me, 1, clock, ring.signer(me), ring.verifier())
    }

    /// Hands every timer in `out` to `core` as the network thread would
    /// once it came due, and returns them.
    fn fire<A: Automaton>(core: &mut NodeCore<A>, out: &mut Outbox<A::Msg>) -> Vec<TimerId> {
        let armed: Vec<_> = out.timers.drain(..).map(|(_, id)| id).collect();
        for &id in &armed {
            assert!(core.on_event(NodeEvent::Timer(id), out));
        }
        armed
    }

    #[test]
    fn cancelling_fired_timers_leaves_no_per_timer_state() {
        let mut core = core(Alarms(Vec::new(), 0));
        let mut out = Outbox::default();
        let before = Instant::now();
        core.init(&mut out);
        assert_eq!(out.timers.len(), 1_000);
        assert!(
            out.timers.iter().all(|&(at, _)| at <= before),
            "not due at once"
        );
        let armed = fire(&mut core, &mut out);
        assert_eq!(core.automaton.1, 1_000);
        // A second hand-off of the same ids finds them stale.
        for &id in &armed {
            assert!(core.on_event(NodeEvent::Timer(id), &mut out));
        }
        assert_eq!(core.automaton.1, 1_000, "a timer fired twice");
        let me = core.me();
        assert!(core.on_event(NodeEvent::Deliver { from: me, msg: () }, &mut out));
        assert!(out.timers.is_empty());
        assert_eq!(core.timers.live(), 0, "{} ids kept", core.timers.live());
    }

    /// Arms one timer due at once and one an hour out, at start and
    /// again on recovery, and counts fires.
    struct Pair(usize);

    impl Automaton for Pair {
        type Msg = ();

        fn on_init(&mut self, ctx: &mut dyn Context<()>) {
            ctx.set_timer_at(LocalTime::ZERO);
            ctx.set_timer_at(LocalTime::ZERO + Dur::from_secs(3600.0));
        }

        fn on_recover(&mut self, ctx: &mut dyn Context<()>) {
            self.on_init(ctx);
        }

        fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut dyn Context<()>) {}

        fn on_timer(&mut self, _timer: TimerId, _ctx: &mut dyn Context<()>) {
            self.0 += 1;
        }
    }

    /// The runtime's crash rule for timers: one that comes due while the
    /// node is frozen is dropped, and `Thaw` cancels every timer still
    /// pending, so one armed before `Freeze` and due after `Thaw` does
    /// not fire either. (The simulators defer a crashed node's due timer
    /// to its recovery instant instead.)
    #[test]
    fn a_frozen_node_drops_its_due_timers_and_a_thaw_cancels_the_rest() {
        let mut core = core(Pair(0));
        let mut out = Outbox::default();
        core.init(&mut out);
        let armed: Vec<_> = out.timers.drain(..).map(|(_, id)| id).collect();
        assert!(core.on_event(NodeEvent::Freeze, &mut out));
        // The first comes due while the node is down.
        assert!(core.on_event(NodeEvent::Timer(armed[0]), &mut out));
        assert_eq!(core.automaton.0, 0, "a frozen node ran a timer");
        assert!(core.on_event(NodeEvent::Thaw, &mut out));
        assert_eq!(core.timers.live(), 2, "the thaw left a timer pending");
        // The second comes due after the recovery, and so does a late
        // hand-off of the first.
        for id in [armed[1], armed[0]] {
            assert!(core.on_event(NodeEvent::Timer(id), &mut out));
        }
        assert_eq!(core.automaton.0, 0, "a timer from before the crash fired");
        // What the recovery hook armed fires as usual.
        fire(&mut core, &mut out);
        assert_eq!(core.automaton.0, 2);
    }
}
