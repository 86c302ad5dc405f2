use crusader_crypto::{CarriesSignatures, NodeId, Signer, Verifier};
use crusader_time::LocalTime;

pub use crate::event::{TimerId, TimerSlab};

/// A protocol node as an event-driven automaton.
///
/// Automatons are runtime-agnostic: the same implementation runs under the
/// discrete-event simulator ([`Sim`](crate::Sim)) and under the wall-clock
/// runtime (`crusader-runtime`). All interaction with the outside world
/// goes through the [`Context`].
///
/// Handlers are invoked sequentially per node; an automaton never needs
/// interior synchronization — every executor guarantees it: the
/// simulator by construction, and the wall-clock runtime by a
/// never-queued-twice scheduling flag per node task on its reactor's
/// worker pool. Automatons own their state outright (`'static`): the
/// runtime's reactor moves individual node tasks between workers.
pub trait Automaton: Send + 'static {
    /// The protocol's message type.
    ///
    /// Messages are immutable values once sent; `Sync` lets the
    /// wall-clock runtime share one broadcast payload across its worker
    /// threads.
    type Msg: Clone + std::fmt::Debug + CarriesSignatures + Send + Sync + 'static;

    /// Called once at time 0 (before any message or timer).
    fn on_init(&mut self, ctx: &mut dyn Context<Self::Msg>);

    /// Called when a message from `from` finishes arriving. Channels are
    /// authenticated: `from` is the true sender.
    fn on_message(&mut self, from: NodeId, msg: Self::Msg, ctx: &mut dyn Context<Self::Msg>);

    /// Called when a timer set via [`Context::set_timer_at`] fires.
    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<Self::Msg>);

    /// Called when the node comes back up after a crash window (or after
    /// a supervised panic on the wall-clock runtime).
    ///
    /// Deliveries that arrived while the node was down have been
    /// dropped. Pre-crash timers are *not* silently cancelled by every
    /// executor: the wall-clock runtime clears its timer heap before
    /// calling this, but the simulator defers them to the recovery
    /// instant and fires them *after* this handler (deterministically
    /// later in the event order). A recovering automaton must therefore
    /// drop its own timer bookkeeping here so any stale timer that still
    /// fires is recognized and ignored. The handler's job is to rebuild:
    /// clear stale protocol state and start whatever resynchronization
    /// the protocol defines (see `crusader_core::RecoveringNode` for the
    /// signed rejoin handshake). The default does nothing, which
    /// preserves the historical behaviour of resuming with stale state.
    fn on_recover(&mut self, _ctx: &mut dyn Context<Self::Msg>) {}
}

/// The world as visible to one protocol node.
///
/// Deliberately narrow: a node can read *its own hardware clock* (never real
/// time), send messages, arm local-time timers, and report pulses. This is
/// exactly the interface of the model in Section 2 of the paper.
pub trait Context<M> {
    /// This node's identity.
    fn me(&self) -> NodeId;

    /// System size `n`.
    fn n(&self) -> usize;

    /// Current hardware-clock reading `H_v(now)`.
    fn local_time(&self) -> LocalTime;

    /// Sends `msg` to `to`. Delivery takes between the link's minimum delay
    /// and `d`, chosen adversarially.
    fn send(&mut self, to: NodeId, msg: M);

    /// Sends `msg` to every node, including `self.me()`.
    fn broadcast(&mut self, msg: M);

    /// Arms a timer that fires when this node's hardware clock reads `at`.
    /// A timer armed at or before the current local time fires immediately
    /// (at the current instant, after the present handler returns).
    fn set_timer_at(&mut self, at: LocalTime) -> TimerId;

    /// Cancels a pending timer. Cancelling an already-fired timer is a
    /// no-op.
    fn cancel_timer(&mut self, timer: TimerId);

    /// Reports generation of pulse `index` (1-based) at the current
    /// instant.
    fn pulse(&mut self, index: u64);

    /// This node's signing capability.
    fn signer(&self) -> &dyn Signer;

    /// The shared PKI verifier.
    fn verifier(&self) -> &dyn Verifier;

    /// Records a soft protocol violation (e.g. a deadline that could not be
    /// met). Simulations collect these instead of panicking so resilience
    /// experiments can observe graceful degradation.
    fn mark_violation(&mut self, description: String);
}

/// The handler an executor runs on a node. `T` is the message: a handle
/// until the simulator resolves it.
#[derive(Debug)]
pub enum Call<T> {
    /// [`Automaton::on_init`].
    Init,
    /// [`Automaton::on_message`].
    Message {
        /// The authenticated sender.
        from: NodeId,
        /// The message, or the simulator's handle on it.
        msg: T,
    },
    /// [`Automaton::on_timer`].
    Timer(TimerId),
    /// [`Automaton::on_recover`].
    Recover,
}

impl<T> Call<T> {
    /// Resolves the message, if any.
    #[inline]
    pub(crate) fn resolve<M>(self, f: impl FnOnce(T) -> M) -> Call<M> {
        match self {
            Call::Init => Call::Init,
            Call::Message { from, msg } => Call::Message { from, msg: f(msg) },
            Call::Timer(id) => Call::Timer(id),
            Call::Recover => Call::Recover,
        }
    }
}

impl<M> Call<M> {
    /// Runs the handler on `node` against `ctx`.
    #[inline]
    pub fn run<A: Automaton<Msg = M>>(self, node: &mut A, ctx: &mut dyn Context<M>) {
        match self {
            Call::Init => node.on_init(ctx),
            Call::Message { from, msg } => node.on_message(from, msg, ctx),
            Call::Timer(id) => node.on_timer(id, ctx),
            Call::Recover => node.on_recover(ctx),
        }
    }
}

/// What a handler asked for through its [`NodeCtx`], in call order. The
/// executor applies the list after the handler returns; a handler that
/// panics has its list dropped.
#[derive(Debug)]
pub enum Effect<M> {
    /// [`Context::send`].
    Send {
        /// The destination.
        to: NodeId,
        /// The message.
        msg: M,
    },
    /// [`Context::broadcast`]: one payload for all `n` destinations,
    /// shared by the fan-out instead of deep-cloned `n` times.
    Broadcast {
        /// The message.
        msg: M,
    },
    /// [`Context::set_timer_at`]: timer `id`, already armed in the node's
    /// [`TimerSlab`], fires when the node's clock reads `at` (at once if
    /// it reads `at` or more now).
    SetTimer {
        /// The armed id.
        id: TimerId,
        /// The local fire time, as the handler asked for it.
        at: LocalTime,
    },
    /// [`Context::cancel_timer`].
    CancelTimer {
        /// The id to cancel (possibly stale).
        id: TimerId,
    },
    /// [`Context::pulse`].
    Pulse {
        /// The 1-based pulse index.
        index: u64,
    },
    /// [`Context::mark_violation`], without the node prefix the executor
    /// adds.
    Violation(String),
}

/// The one [`Context`] every executor runs handlers against: the
/// simulator, the wall-clock runtime and the lower-bound tri-execution
/// engine.
///
/// Reads come from the fields it is built with; everything a handler asks
/// for is recorded as an [`Effect`] in the executor's buffer, except that
/// arming a timer takes its id from the node's [`TimerSlab`] at once. The
/// executor fires a timer only if the slab still holds its id, and it
/// applies a [`Effect::CancelTimer`] to the slab.
pub struct NodeCtx<'a, M> {
    me: NodeId,
    n: usize,
    now_local: LocalTime,
    signer: &'a dyn Signer,
    verifier: &'a dyn Verifier,
    timers: &'a mut TimerSlab,
    effects: &'a mut Vec<Effect<M>>,
}

impl<'a, M> NodeCtx<'a, M> {
    /// Node `me`'s context in a system of `n`, its clock reading
    /// `now_local`, recording into `effects`.
    #[must_use]
    pub fn new(
        me: NodeId,
        n: usize,
        now_local: LocalTime,
        signer: &'a dyn Signer,
        verifier: &'a dyn Verifier,
        timers: &'a mut TimerSlab,
        effects: &'a mut Vec<Effect<M>>,
    ) -> Self {
        NodeCtx {
            me,
            n,
            now_local,
            signer,
            verifier,
            timers,
            effects,
        }
    }
}

impl<M> Context<M> for NodeCtx<'_, M> {
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
        self.effects.push(Effect::Send { to, msg });
    }

    fn broadcast(&mut self, msg: M) {
        self.effects.push(Effect::Broadcast { msg });
    }

    fn set_timer_at(&mut self, at: LocalTime) -> TimerId {
        let id = self.timers.arm();
        self.effects.push(Effect::SetTimer { id, at });
        id
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        self.effects.push(Effect::CancelTimer { id: timer });
    }

    fn pulse(&mut self, index: u64) {
        self.effects.push(Effect::Pulse { index });
    }

    fn signer(&self) -> &dyn Signer {
        self.signer
    }

    fn verifier(&self) -> &dyn Verifier {
        self.verifier
    }

    fn mark_violation(&mut self, description: String) {
        self.effects.push(Effect::Violation(description));
    }
}
