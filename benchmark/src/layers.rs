//! Out-of-workload probes: each layer's public functions timed on their
//! own, from outside.
//!
//! Every timing is the median of [`BATCHES`] batches of `iters` calls,
//! with inputs and results passed through `black_box`. The `core` probes
//! record what one honest node's handlers were given in a short
//! simulation and replay it into a fresh automaton, so the handler sees
//! the same messages in the same order at the same local times.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crusader_chaos::InvariantChecker;
use crusader_core::{
    pulse_sign_bytes_array, Carry, CpsNode, Params, PulseCertificate, PulseClient, RecoveringNode,
    RecoveryMsg, ResyncReply,
};
use crusader_crypto::{KeyRing, KnowledgeTracker, NodeId, Signer, Verifier};
use crusader_runtime::wheel::TimerWheel;
use crusader_runtime::EmulatedClock;
use crusader_sim::metrics::pulse_stats;
use crusader_sim::{Automaton, Context, SilentAdversary, TimerId};
use crusader_time::{Dur, HardwareClock, LocalTime, Time};

use crate::stats::median;
use crate::workloads::sim_cps::{Cps, Exec};
use crate::workloads::{rt, sim_chaos, Outcome, DEFAULT_SEED};

const BATCHES: usize = 5;

/// How much the probes run: the iteration count of the tight loops, and
/// how long the idle runtime is watched.
#[derive(Clone, Copy)]
pub struct Effort {
    pub iters: usize,
    pub idle_run: Duration,
}

impl Effort {
    pub const FULL: Effort = Effort {
        iters: 100_000,
        idle_run: Duration::from_secs(2),
    };
    pub const SMOKE: Effort = Effort {
        iters: 1_000,
        idle_run: Duration::from_millis(300),
    };
}

/// Median over the batches of nanoseconds per call of `f(i)`.
fn ns_per_call(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// Median over the batches of the seconds one `f()` takes.
fn seconds_per_run<T>(mut f: impl FnMut() -> T) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&batches)
}

// ------------------------------------------------------------------- time

pub fn time(out: &mut Outcome, effort: Effort) {
    let clock = HardwareClock::with_offset_and_rate(Dur::from_micros(7.0), 1.000_05);
    out.set(
        "time.clock_read_ns",
        ns_per_call(effort.iters, |i| {
            black_box(clock.read(black_box(Time::from_micros(i as f64))));
        }),
    );
    out.set(
        "time.clock_when_ns",
        ns_per_call(effort.iters, |i| {
            black_box(clock.when(black_box(LocalTime::from_micros(10.0 + i as f64))));
        }),
    );
}

// ----------------------------------------------------------------- crypto

fn sign_verify(
    out: &mut Outcome,
    effort: Effort,
    ring: &KeyRing,
    sign: &'static str,
    verify: &'static str,
) {
    let dealer = NodeId::new(3);
    let signer = ring.signer(dealer);
    let verifier = ring.verifier();
    out.set(
        sign,
        ns_per_call(effort.iters, |i| {
            black_box(signer.sign(black_box(&pulse_sign_bytes_array(i as u64, dealer))));
        }),
    );
    let bytes = pulse_sign_bytes_array(9, dealer);
    let sig = signer.sign(&bytes);
    out.set(
        verify,
        ns_per_call(effort.iters, |_| {
            assert!(black_box(verifier.verify(
                dealer,
                black_box(&bytes),
                black_box(&sig)
            )));
        }),
    );
}

pub fn crypto_symbolic(out: &mut Outcome, effort: Effort) {
    let ring = KeyRing::symbolic(64, DEFAULT_SEED);
    sign_verify(
        out,
        effort,
        &ring,
        "crypto.sign_ns.symbolic",
        "crypto.verify_ns.symbolic",
    );
}

pub fn crypto_ed25519(out: &mut Outcome, effort: Effort) {
    let ring = KeyRing::ed25519(16, DEFAULT_SEED);
    sign_verify(
        out,
        effort,
        &ring,
        "crypto.sign_ns.ed25519",
        "crypto.verify_ns.ed25519",
    );
}

/// `KnowledgeTracker` on the `Carry` messages an active adversary makes
/// the engine walk: learning each one once, then authorizing each.
pub fn crypto_knowledge(out: &mut Outcome, effort: Effort) {
    let n = 64;
    let ring = KeyRing::symbolic(n, DEFAULT_SEED);
    let carries: Vec<Carry> = (0..effort.iters)
        .map(|i| {
            let dealer = NodeId::new(i % n);
            let round = 1 + (i / n) as u64;
            Carry {
                round,
                dealer,
                signature: ring
                    .signer(dealer)
                    .sign(&pulse_sign_bytes_array(round, dealer)),
            }
        })
        .collect();
    let corrupted: BTreeSet<NodeId> = [NodeId::new(n - 1)].into();
    let mut tracker = KnowledgeTracker::new(corrupted.clone());
    out.set(
        "crypto.knowledge_learn_ns",
        ns_per_call(effort.iters, |i| {
            if i == 0 {
                tracker = KnowledgeTracker::new(corrupted.clone());
            }
            tracker.learn_all(black_box(&carries[i]), Time::from_micros(i as f64));
        }),
    );
    let at = Time::from_secs(1.0);
    out.set(
        "crypto.knowledge_authorize_ns",
        ns_per_call(effort.iters, |i| {
            assert!(black_box(tracker.authorize(black_box(&carries[i]), at)).is_ok());
        }),
    );
}

// ------------------------------------------------------------------- core

/// One handler call as node 0 saw it.
#[derive(Clone)]
enum Input<M> {
    Init,
    Message(NodeId, M),
    Timer(TimerId),
}

/// What a recorded run gave one node: each handler call with the local
/// time it ran at, and the timer ids the context handed out, in order
/// (the automaton keeps them and matches fired timers against them).
struct Recording<M> {
    inputs: Vec<(LocalTime, Input<M>)>,
    timer_ids: Vec<TimerId>,
}

/// Wraps the automaton of the recorded node.
struct Recorder<A: Automaton> {
    inner: A,
    tape: Arc<std::sync::Mutex<Recording<A::Msg>>>,
}

struct RecordingCtx<'a, M> {
    inner: &'a mut dyn Context<M>,
    timer_ids: Vec<TimerId>,
}

impl<M> Context<M> for RecordingCtx<'_, M> {
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
        self.inner.send(to, msg);
    }
    fn broadcast(&mut self, msg: M) {
        self.inner.broadcast(msg);
    }
    fn set_timer_at(&mut self, at: LocalTime) -> TimerId {
        let id = self.inner.set_timer_at(at);
        self.timer_ids.push(id);
        id
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        self.inner.cancel_timer(timer);
    }
    fn pulse(&mut self, index: u64) {
        self.inner.pulse(index);
    }
    fn signer(&self) -> &dyn Signer {
        self.inner.signer()
    }
    fn verifier(&self) -> &dyn Verifier {
        self.inner.verifier()
    }
    fn mark_violation(&mut self, description: String) {
        self.inner.mark_violation(description);
    }
}

impl<A: Automaton> Recorder<A> {
    fn record(
        &mut self,
        input: Input<A::Msg>,
        ctx: &mut dyn Context<A::Msg>,
        call: impl FnOnce(&mut A, &mut dyn Context<A::Msg>),
    ) {
        let at = ctx.local_time();
        let mut rec = RecordingCtx {
            inner: ctx,
            timer_ids: Vec::new(),
        };
        call(&mut self.inner, &mut rec);
        let mut tape = self.tape.lock().expect("no panic under the lock");
        tape.inputs.push((at, input));
        tape.timer_ids.extend(rec.timer_ids);
    }
}

/// Records node 0 and runs every other node bare.
enum MaybeRecorded<A: Automaton> {
    Recorded(Recorder<A>),
    Bare(A),
}

impl<A: Automaton> Automaton for MaybeRecorded<A> {
    type Msg = A::Msg;

    fn on_init(&mut self, ctx: &mut dyn Context<A::Msg>) {
        match self {
            MaybeRecorded::Recorded(r) => r.record(Input::Init, ctx, |a, ctx| a.on_init(ctx)),
            MaybeRecorded::Bare(a) => a.on_init(ctx),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: A::Msg, ctx: &mut dyn Context<A::Msg>) {
        match self {
            MaybeRecorded::Recorded(r) => {
                r.record(Input::Message(from, msg.clone()), ctx, |a, ctx| {
                    a.on_message(from, msg, ctx);
                })
            }
            MaybeRecorded::Bare(a) => a.on_message(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<A::Msg>) {
        match self {
            MaybeRecorded::Recorded(r) => {
                r.record(Input::Timer(timer), ctx, |a, ctx| a.on_timer(timer, ctx));
            }
            MaybeRecorded::Bare(a) => a.on_timer(timer, ctx),
        }
    }
}

/// The benchmark-owned context a replay runs against: it serves the
/// recorded local times and timer ids and drops what the handler sends.
struct ProbeCtx<'a> {
    me: NodeId,
    n: usize,
    now: LocalTime,
    timer_ids: std::slice::Iter<'a, TimerId>,
    fallback_timer: u64,
    signer: &'a dyn Signer,
    verifier: &'a dyn Verifier,
    pub sent: u64,
    pub pulses: u64,
    pub violations: u64,
}

impl<'a> ProbeCtx<'a> {
    fn new(
        me: NodeId,
        ring_n: usize,
        signer: &'a dyn Signer,
        verifier: &'a dyn Verifier,
        timer_ids: &'a [TimerId],
    ) -> Self {
        ProbeCtx {
            me,
            n: ring_n,
            now: LocalTime::ZERO,
            timer_ids: timer_ids.iter(),
            fallback_timer: 1 << 60,
            signer,
            verifier,
            sent: 0,
            pulses: 0,
            violations: 0,
        }
    }
}

impl<M> Context<M> for ProbeCtx<'_> {
    fn me(&self) -> NodeId {
        self.me
    }
    fn n(&self) -> usize {
        self.n
    }
    fn local_time(&self) -> LocalTime {
        self.now
    }
    fn send(&mut self, _to: NodeId, msg: M) {
        self.sent += 1;
        black_box(msg);
    }
    fn broadcast(&mut self, msg: M) {
        self.sent += self.n as u64;
        black_box(msg);
    }
    fn set_timer_at(&mut self, _at: LocalTime) -> TimerId {
        // Past the recorded ids (a handler that arms more timers than the
        // recorded one did) fresh ids keep the replay going.
        self.timer_ids.next().copied().unwrap_or_else(|| {
            self.fallback_timer += 1;
            TimerId::new(self.fallback_timer)
        })
    }
    fn cancel_timer(&mut self, _timer: TimerId) {}
    fn pulse(&mut self, _index: u64) {
        self.pulses += 1;
    }
    fn signer(&self) -> &dyn Signer {
        self.signer
    }
    fn verifier(&self) -> &dyn Verifier {
        self.verifier
    }
    fn mark_violation(&mut self, _description: String) {
        self.violations += 1;
    }
}

/// Runs the CPS scenario for three pulses and returns what node 0's
/// handlers were given.
fn record_cps(cps: &Cps) -> Recording<Carry> {
    let tape = Arc::new(std::sync::Mutex::new(Recording {
        inputs: Vec::new(),
        timer_ids: Vec::new(),
    }));
    let trace = cps
        .builder()
        .max_pulses(3)
        .build(
            |me| {
                if me.index() == 0 {
                    MaybeRecorded::Recorded(Recorder {
                        inner: cps.node(me),
                        tape: Arc::clone(&tape),
                    })
                } else {
                    MaybeRecorded::Bare(cps.node(me))
                }
            },
            Box::new(SilentAdversary),
        )
        .run();
    assert!(trace.violations.is_empty(), "{:?}", trace.violations);
    Arc::into_inner(tape)
        .expect("the simulation is gone")
        .into_inner()
        .expect("no panic under the lock")
}

/// Replays `tape` into `node` once. Returns the number of handler calls
/// and the pulses the node reported.
fn replay<A: Automaton>(node: &mut A, tape: &Recording<A::Msg>, ctx: &mut ProbeCtx<'_>) -> usize {
    for (at, input) in &tape.inputs {
        ctx.now = *at;
        match input.clone() {
            Input::Init => node.on_init(ctx),
            Input::Message(from, msg) => node.on_message(from, msg, ctx),
            Input::Timer(id) => node.on_timer(id, ctx),
        }
    }
    tape.inputs.len()
}

pub fn core_cps(out: &mut Outcome, effort: Effort) {
    let cps = Cps::new(DEFAULT_SEED);
    let tape = record_cps(&cps);
    let ring = KeyRing::symbolic(cps.params.n, cps.seed);
    let me = NodeId::new(0);
    let (signer, verifier) = (ring.signer(me), ring.verifier());
    let replays = effort.iters.div_ceil(tape.inputs.len());

    // The replayed node must do what the recorded one did: three pulses,
    // no violation. A replay that drifts measures some other code path.
    let mut ctx = ProbeCtx::new(me, cps.params.n, &*signer, &*verifier, &tape.timer_ids);
    replay(&mut cps.node(me), &tape, &mut ctx);
    if (ctx.pulses, ctx.violations) != (3, 0) {
        out.fail(format!(
            "core replay drifted: {} pulses and {} violations, recorded 3 and 0",
            ctx.pulses, ctx.violations
        ));
    }

    let per_replay = ns_per_call(replays, |_| {
        let mut ctx = ProbeCtx::new(me, cps.params.n, &*signer, &*verifier, &tape.timer_ids);
        let mut node = cps.node(me);
        replay(&mut node, black_box(&tape), &mut ctx);
        black_box((node.round(), ctx.sent));
    });
    out.set(
        "core.cps_on_message_ns",
        per_replay / tape.inputs.len() as f64,
    );

    // The client follows the same traffic: the messages only, since it
    // arms no timers. Every node is a core dealer to it.
    let messages = Recording {
        inputs: tape
            .inputs
            .iter()
            .filter(|(_, input)| matches!(input, Input::Message(..)))
            .cloned()
            .collect(),
        timer_ids: Vec::new(),
    };
    let per_replay = ns_per_call(replays, |_| {
        let mut ctx = ProbeCtx::new(me, cps.params.n, &*signer, &*verifier, &[]);
        let mut client = PulseClient::new(cps.params.n, cps.params.f);
        replay(&mut client, black_box(&messages), &mut ctx);
        black_box((client.rounds_followed(), ctx.pulses));
    });
    out.set(
        "core.client_on_message_ns",
        per_replay / messages.inputs.len() as f64,
    );
}

/// A recovering node taking in `ResyncReply`s, each with a certificate of
/// f + 1 = 16 signatures (n = 32, the size `sim_chaos` runs at).
pub fn core_recovery(out: &mut Outcome, effort: Effort) {
    let n = sim_chaos::N;
    let params = Params::max_resilience(n, Dur::from_millis(20.0), Dur::from_millis(6.0), 1.01);
    let derived = params
        .derive()
        .expect("the catalog's parameters are feasible");
    let ring = KeyRing::symbolic(n, DEFAULT_SEED);
    let me = NodeId::new(0);
    let (signer, verifier) = (ring.signer(me), ring.verifier());
    let round = 7;
    let reply = RecoveryMsg::ResyncReply(ResyncReply {
        cert: PulseCertificate {
            round,
            sigs: (1..=params.f + 1)
                .map(|v| {
                    let dealer = NodeId::new(v);
                    let sig = ring
                        .signer(dealer)
                        .sign(&pulse_sign_bytes_array(round, dealer));
                    (dealer, sig)
                })
                .collect(),
        },
        since_pulse: Dur::from_millis(30.0),
    });
    let resyncing_node = || {
        let mut ctx = ProbeCtx::new(me, n, &*signer, &*verifier, &[]);
        let mut node = RecoveringNode::new(CpsNode::new(me, params, derived));
        node.on_init(&mut ctx);
        ctx.now = LocalTime::from_millis(500.0);
        node.on_recover(&mut ctx);
        assert!(node.resyncing());
        node
    };
    let mut node = resyncing_node();
    let mut ctx = ProbeCtx::new(me, n, &*signer, &*verifier, &[]);
    ctx.now = LocalTime::from_millis(530.0);
    out.set(
        "core.recovery_reply_ns",
        ns_per_call(effort.iters, |i| {
            if i == 0 {
                // Each batch starts over: accepted replies accumulate.
                node = resyncing_node();
            }
            node.on_message(
                NodeId::new(1 + i % (n - 1)),
                black_box(reply.clone()),
                &mut ctx,
            );
        }),
    );
}

// -------------------------------------------------------------------- sim

/// Unsigned traffic with CPS's fan-out: every honest node broadcasts once
/// a round and echoes every direct message it receives to everyone, and
/// moves to the next round when it has heard all honest nodes directly.
/// What is left of an event's cost is the queue and the dispatch.
#[derive(Clone, Debug)]
struct Flood {
    echo: bool,
}

impl crusader_crypto::CarriesSignatures for Flood {}

struct Flooder {
    honest: usize,
    rounds: u64,
    round: u64,
    heard: usize,
}

impl Automaton for Flooder {
    type Msg = Flood;

    fn on_init(&mut self, ctx: &mut dyn Context<Flood>) {
        ctx.broadcast(Flood { echo: false });
    }

    fn on_message(&mut self, _from: NodeId, msg: Flood, ctx: &mut dyn Context<Flood>) {
        if msg.echo {
            return;
        }
        ctx.broadcast(Flood { echo: true });
        self.heard += 1;
        if self.heard == self.honest {
            self.heard = 0;
            ctx.pulse(self.round);
            self.round += 1;
            if self.round <= self.rounds {
                ctx.broadcast(Flood { echo: false });
            }
        }
    }

    fn on_timer(&mut self, _timer: TimerId, _ctx: &mut dyn Context<Flood>) {}
}

pub fn sim_engine(out: &mut Outcome, _effort: Effort) {
    let cps = Cps::new(DEFAULT_SEED);
    out.set("sim.build_s", seconds_per_run(|| cps.build()));

    let honest = cps.honest().len();
    let mut events = 0;
    let null_s = seconds_per_run(|| {
        let trace = cps
            .builder()
            .build(
                |_| Flooder {
                    honest,
                    rounds: 8,
                    round: 1,
                    heard: 0,
                },
                Box::new(SilentAdversary),
            )
            .run();
        events = trace.events_processed;
    });
    out.set("sim.null_ns_per_event", null_s * 1e9 / events.max(1) as f64);

    let trace = cps.build().run();
    let nodes = cps.honest();
    out.set(
        "sim.pulse_stats_us",
        ns_per_call(200, |_| {
            black_box(pulse_stats(black_box(&trace), &nodes));
        }) / 1e3,
    );
}

/// The sharded engine with its lanes run inline and on the worker pool,
/// against the single lane: inline shows what the reconcile costs, the
/// pool what the thread hand-off adds or wins back.
pub fn sim_shard(out: &mut Outcome, _effort: Effort) {
    let cps = Cps::new(DEFAULT_SEED);
    let Exec::Sharded { lanes, .. } = Exec::sharded_for_host() else {
        unreachable!("sharded_for_host is sharded");
    };
    let events = cps.build().run().events_processed as f64;
    let single_s = seconds_per_run(|| Exec::Single.run(cps.build()));
    let inline_s = seconds_per_run(|| {
        Exec::Sharded {
            lanes,
            parallel: false,
        }
        .run(cps.build())
    });
    let mut posted = 0;
    let pool_s = seconds_per_run(|| {
        let mut sharded = cps.build().sharded(lanes);
        sharded.set_parallel(true);
        let (trace, stats) = sharded.run_with_stats();
        posted = stats.posted;
        trace
    });
    out.set("sim.shard.inline_ns_per_event", inline_s * 1e9 / events);
    out.set("sim.shard.pool_ns_per_event", pool_s * 1e9 / events);
    out.set("sim.shard.speedup_vs_single", single_s / pool_s);
    out.set("sim.shard.mailbox_posted", posted as f64);
}

// ------------------------------------------------------------------ chaos

pub fn chaos(out: &mut Outcome, _effort: Effort) {
    out.set(
        "chaos.load_us",
        seconds_per_run(|| sim_chaos::load(DEFAULT_SEED)) * 1e6,
    );
    let scenarios = sim_chaos::load(DEFAULT_SEED);
    let calm = scenarios
        .iter()
        .find(|sc| sc.is_fault_free())
        .expect("the catalog has a fault-free scenario");
    let (trace, _) = sim_chaos::replay(calm, None, false);
    let pulses: usize = trace.pulses.iter().map(Vec::len).sum();
    let replay_s = seconds_per_run(|| {
        let checker = InvariantChecker::new(calm.invariants.clone(), calm.n, &calm.affected());
        checker.replay_trace(&trace);
        checker.snapshot()
    });
    out.set(
        "chaos.checker_replay_ns_per_pulse",
        replay_s * 1e9 / pulses.max(1) as f64,
    );
    let with = seconds_per_run(|| sim_chaos::replay(calm, None, true));
    let without = seconds_per_run(|| sim_chaos::replay(calm, None, false));
    out.set("chaos.observer_overhead", with / without);
}

// ---------------------------------------------------------------- runtime

pub fn runtime(out: &mut Outcome, effort: Effort) {
    // The reactor's wheel: 256 slots of 50 µs, holding 64k entries.
    const ENTRIES: u64 = 1 << 16;
    const GRANULARITY: u64 = 50_000;
    let spread = |i: u64| (i * 7919 % ENTRIES) * GRANULARITY / 4;
    let mut insert = Vec::new();
    let mut cancel = Vec::new();
    let mut fire = Vec::new();
    for _ in 0..BATCHES {
        let mut wheel = TimerWheel::new(GRANULARITY, 256);
        let t = Instant::now();
        let keys: Vec<_> = (0..ENTRIES).map(|i| wheel.insert(spread(i), i)).collect();
        insert.push(t.elapsed().as_nanos() as f64 / ENTRIES as f64);
        let t = Instant::now();
        for key in keys.iter().step_by(2) {
            black_box(wheel.cancel(*key));
        }
        cancel.push(t.elapsed().as_nanos() as f64 / (ENTRIES / 2) as f64);
        let t = Instant::now();
        let mut fired = 0;
        let mut now = 0;
        while !wheel.is_empty() {
            now += GRANULARITY;
            fired += black_box(wheel.advance(now)).len();
        }
        fire.push(t.elapsed().as_nanos() as f64 / fired.max(1) as f64);
    }
    out.set("runtime.wheel.insert_ns", median(&insert));
    out.set("runtime.wheel.cancel_ns", median(&cancel));
    out.set("runtime.wheel.advance_ns_per_fire", median(&fire));

    let start = Instant::now();
    let clock = EmulatedClock::new(start, Dur::from_millis(1.0), 1.005);
    out.set(
        "runtime.clock_read_ns",
        ns_per_call(effort.iters, |i| {
            let now = start + Duration::from_nanos(i as u64);
            black_box(clock.read(black_box(now)));
        }),
    );
    out.set(
        "runtime.idle_cpu_share",
        rt::idle_cpu_share(effort.idle_run),
    );
}
