//! The wrappers of the traced run: `Traced<A>` around an automaton,
//! `TracedCtx` around the context it is handed, and timed `Signer` and
//! `Verifier` wrappers. All of them only time the call and pass it on.

use std::sync::Arc;

use crusader_crypto::{KeyRing, NodeId, Signature, Signer, Verifier};
use crusader_sim::{Automaton, Context, TimerId};
use crusader_time::LocalTime;

use crate::span::{Collector, Kind, Recorder};

struct TimedSigner {
    inner: Arc<dyn Signer>,
    rec: Arc<Recorder>,
}

impl Signer for TimedSigner {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn sign(&self, msg: &[u8]) -> Signature {
        let start = self.rec.now();
        let sig = self.inner.sign(msg);
        self.rec.child(Kind::Sign, start, self.rec.now());
        sig
    }
}

struct TimedVerifier {
    inner: Arc<dyn Verifier>,
    rec: Arc<Recorder>,
}

impl Verifier for TimedVerifier {
    fn verify(&self, signer: NodeId, msg: &[u8], sig: &Signature) -> bool {
        let start = self.rec.now();
        let ok = self.inner.verify(signer, msg, sig);
        self.rec.child(Kind::Verify, start, self.rec.now());
        ok
    }
}

/// An automaton whose handler calls, and the calls they make into
/// `crypto` and back into the executor, are recorded as spans.
///
/// The executors build their key ring inside `build` / `run` and hand it
/// out only through the context, so the wrapper rebuilds the same ring
/// from `(n, seed)` — both executors derive it deterministically — and
/// serves its own timed signer and verifier in place of the context's.
pub struct Traced<A> {
    inner: A,
    rec: Arc<Recorder>,
    signer: TimedSigner,
    verifier: TimedVerifier,
}

impl<A: Automaton> Traced<A> {
    pub fn new(inner: A, me: NodeId, ring: &KeyRing, collector: &Arc<Collector>) -> Self {
        let rec = Arc::new(Recorder::new(collector, me.index(), ring.n()));
        Traced {
            inner,
            signer: TimedSigner {
                inner: ring.signer(me),
                rec: Arc::clone(&rec),
            },
            verifier: TimedVerifier {
                inner: ring.verifier(),
                rec: Arc::clone(&rec),
            },
            rec,
        }
    }

    fn handle(
        &mut self,
        kind: Kind,
        ctx: &mut dyn Context<A::Msg>,
        call: impl FnOnce(&mut A, &mut dyn Context<A::Msg>),
    ) {
        let start = self.rec.now();
        call(
            &mut self.inner,
            &mut TracedCtx {
                inner: ctx,
                rec: &self.rec,
                signer: &self.signer,
                verifier: &self.verifier,
            },
        );
        self.rec.end_request(kind, start, self.rec.now());
    }
}

impl<A: Automaton> Automaton for Traced<A> {
    type Msg = A::Msg;

    fn on_init(&mut self, ctx: &mut dyn Context<A::Msg>) {
        self.handle(Kind::OnInit, ctx, |a, ctx| a.on_init(ctx));
    }

    fn on_message(&mut self, from: NodeId, msg: A::Msg, ctx: &mut dyn Context<A::Msg>) {
        self.handle(Kind::OnMessage, ctx, |a, ctx| a.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<A::Msg>) {
        self.handle(Kind::OnTimer, ctx, |a, ctx| a.on_timer(timer, ctx));
    }

    fn on_recover(&mut self, ctx: &mut dyn Context<A::Msg>) {
        self.handle(Kind::OnRecover, ctx, |a, ctx| a.on_recover(ctx));
    }
}

struct TracedCtx<'a, M> {
    inner: &'a mut dyn Context<M>,
    rec: &'a Recorder,
    signer: &'a TimedSigner,
    verifier: &'a TimedVerifier,
}

impl<M> Context<M> for TracedCtx<'_, M> {
    fn me(&self) -> NodeId {
        self.inner.me()
    }

    fn n(&self) -> usize {
        self.inner.n()
    }

    fn local_time(&self) -> LocalTime {
        self.inner.local_time()
    }

    fn send(&mut self, to: NodeId, msg: M) {
        let start = self.rec.now();
        self.inner.send(to, msg);
        self.rec.child(Kind::CtxSend, start, self.rec.now());
    }

    fn broadcast(&mut self, msg: M) {
        let start = self.rec.now();
        self.inner.broadcast(msg);
        self.rec.child(Kind::CtxBroadcast, start, self.rec.now());
    }

    fn set_timer_at(&mut self, at: LocalTime) -> TimerId {
        let start = self.rec.now();
        let id = self.inner.set_timer_at(at);
        self.rec.child(Kind::CtxSetTimer, start, self.rec.now());
        id
    }

    fn cancel_timer(&mut self, timer: TimerId) {
        self.inner.cancel_timer(timer);
    }

    fn pulse(&mut self, index: u64) {
        self.inner.pulse(index);
    }

    fn signer(&self) -> &dyn Signer {
        self.signer
    }

    fn verifier(&self) -> &dyn Verifier {
        self.verifier
    }

    fn mark_violation(&mut self, description: String) {
        self.inner.mark_violation(description);
    }
}
