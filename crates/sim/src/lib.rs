//! Deterministic discrete-event simulator for Byzantine fault-tolerant
//! clock synchronization, implementing the execution model of Lenzen &
//! Loss, *Optimal Clock Synchronization with Signatures* (PODC 2022).
//!
//! The paper has no testbed; this simulator plays that role, giving the
//! adversary exactly the power the model grants and nothing more:
//!
//! * **Delays** — every message takes between `d − u` and `d` (honest
//!   links) or `d − ũ` and `d` (links with a faulty endpoint), chosen by a
//!   [`DelayModel`] or directly by the [`Adversary`].
//! * **Clocks** — hardware clocks are adversary-chosen piecewise-linear
//!   functions with rates in `[1, θ]` (see `crusader_time`); honest code
//!   can only read its own clock through the [`Context`].
//! * **Byzantine control** — faulty nodes are arbitrary [`Adversary`] code,
//!   but the engine enforces the model's signature rule: a faulty node may
//!   only send honest signatures it has already received
//!   ([`crusader_crypto::KnowledgeTracker`]).
//! * **Determinism** — identical seeds yield identical executions, event
//!   for event.
//!
//! The [`synchronous`] module additionally provides the classic
//! compute–send–receive round executor with a rushing adversary, used by
//! the paper's synchronous building blocks.
//!
//! # Engine internals & performance
//!
//! Every experiment and test funnels through this engine, so the hot path
//! is engineered to process an event without touching the allocator:
//!
//! * the future-event list is a calendar queue of 32-byte entries, each a
//!   `u128`-packed `(time, seq)` key beside its event — pushes are O(1)
//!   appends to a 128-bucket ring whose window slides with the pops, a
//!   pop takes the last entry of the claimed bucket (sorted once,
//!   descending), and the rest (far-future timers, late pushes into the
//!   bucket being drained; [`Trace::queue_spill_count`] and
//!   [`Trace::queue_splice_count`] count them) waits on one small heap;
//!   ordering never moves or clones a message, and the queue's buffers
//!   hold what is pending plus one spare, not the largest burst each
//!   ring slot ever saw;
//! * node and adversary effect buffers are pooled in the [`Sim`] and
//!   drained in place (one allocation per run, not per event);
//! * every message is stored once, outside the queue, in an
//!   integer-refcounted arena, and events carry a `u32` handle on it: a broadcast fans out as `n` handles, not `n` deep
//!   clones, and a message's signature claims are learned by the
//!   knowledge tracker only on its first faulty delivery (later copies
//!   cannot add knowledge);
//! * timers are generation-stamped slab slots — cancelling an
//!   already-fired timer is recognized by a stale stamp instead of being
//!   remembered forever, and [`Trace::timer_slots_high_water`] exposes
//!   the bounded slab footprint;
//! * adversaries whose callbacks are no-ops declare it via
//!   [`Adversary::is_passive`], letting the engine skip per-message
//!   callback plumbing and knowledge bookkeeping they can never observe;
//! * with such an adversary and no chaos timeline, a delivery to a faulty
//!   node is observable only as two counts, so [`Sim::run`] does not
//!   queue it: it keeps the delivery's `(at, seq)` key and counts it
//!   where the queue would have popped it, exactly under every stop rule
//!   ([`Trace::tallied_deliveries`] reports how many). The crate test
//!   `tallied_deliveries_leave_the_trace_unchanged` and
//!   `crusader_bench`'s `tallied_cps_deliveries_leave_the_trace_unchanged`
//!   check the shortcut against the queued path.
//!
//! There is one engine, and every event happens in one global `(at, seq)`
//! order, as in the paper's model. A sharded executor that ran per-node
//! lanes in parallel up to a lookahead horizon reproduced the same traces
//! but not a speedup: at n = 256 on two cores it took about twice the
//! wall time of [`Sim::run`]. Independent runs parallelize instead.
//! ([`ShardedSim`] remains only as a name the repo benchmark calls.)
//!
//! The engine's deterministic counts (events, messages, spills, splices)
//! are committed in `BENCH_cps.json` at the repo root and compared byte
//! for byte by `experiments counts --check` (see the README's *The
//! count ledger*); wall-clock numbers live in `benchmark/`. A pinned
//! trace-hash test in `crusader_bench` guarantees these optimizations
//! are seed-for-seed trace-identical to the original engine.
//!
//! # Example
//!
//! A trivial protocol that pulses once at local time 1 ms:
//!
//! ```
//! use crusader_crypto::NodeId;
//! use crusader_sim::{Automaton, Context, SilentAdversary, SimBuilder, TimerId};
//! use crusader_time::LocalTime;
//!
//! struct PulseOnce;
//!
//! impl Automaton for PulseOnce {
//!     type Msg = ();
//!     fn on_init(&mut self, ctx: &mut dyn Context<()>) {
//!         ctx.set_timer_at(LocalTime::from_millis(1.0));
//!     }
//!     fn on_message(&mut self, _: NodeId, _: (), _: &mut dyn Context<()>) {}
//!     fn on_timer(&mut self, _: TimerId, ctx: &mut dyn Context<()>) {
//!         ctx.pulse(1);
//!     }
//! }
//!
//! let trace = SimBuilder::new(3)
//!     .max_pulses(1)
//!     .build(|_| PulseOnce, Box::new(SilentAdversary))
//!     .run();
//! assert_eq!(trace.pulses.iter().filter(|p| p.len() == 1).count(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adversary;
mod automaton;
mod engine;
mod event;
mod network;
mod trace;
mod world;

pub mod chaos;
pub mod metrics;
pub mod synchronous;

pub use adversary::{Adversary, AdversaryApi, SilentAdversary};
pub use automaton::{Automaton, Call, Context, Effect, NodeCtx, TimerId, TimerSlab};
pub use chaos::{ChaosTimeline, FloodSpec, RunObserver};
pub use engine::{MailboxStats, ShardedSim, Sim, SimBuilder};
pub use network::{DelayModel, LinkConfig};
pub use trace::{Trace, BLOCKED_FORGERY_PREFIX};

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use crusader_crypto::{CarriesSignatures, NodeId, SignedClaim};
    use crusader_time::drift::DriftModel;
    use crusader_time::{Dur, LocalTime, Time};

    use super::*;

    /// Ping automaton: node 0 broadcasts a token at init; every node that
    /// receives a token pulses once.
    #[derive(Debug, Clone)]
    struct Token;
    impl CarriesSignatures for Token {}

    struct Ping {
        me: NodeId,
        pulsed: bool,
    }

    impl Automaton for Ping {
        type Msg = Token;

        fn on_init(&mut self, ctx: &mut dyn Context<Token>) {
            if self.me == NodeId::new(0) {
                ctx.broadcast(Token);
            }
        }

        fn on_message(&mut self, _from: NodeId, _msg: Token, ctx: &mut dyn Context<Token>) {
            if !self.pulsed {
                self.pulsed = true;
                ctx.pulse(1);
            }
        }

        fn on_timer(&mut self, _t: TimerId, _ctx: &mut dyn Context<Token>) {}
    }

    fn ping_sim(seed: u64) -> SimBuilder {
        SimBuilder::new(4)
            .link(Dur::from_millis(1.0), Dur::from_micros(200.0))
            .seed(seed)
            .horizon(Time::from_secs(1.0))
    }

    #[test]
    fn broadcast_reaches_everyone_within_bounds() {
        let trace = ping_sim(1)
            .build(
                |me| Ping { me, pulsed: false },
                Box::new(SilentAdversary),
            )
            .run();
        for v in 0..4 {
            assert_eq!(trace.pulses[v].len(), 1, "node {v}");
            let at = trace.pulses[v][0];
            assert!(at >= Time::from_micros(800.0) && at <= Time::from_millis(1.0));
        }
    }

    #[test]
    fn identical_seeds_identical_traces() {
        let run = |seed| {
            ping_sim(seed)
                .build(
                    |me| Ping { me, pulsed: false },
                    Box::new(SilentAdversary),
                )
                .run()
        };
        let (a, b, c) = (run(7), run(7), run(8));
        assert_eq!(a.pulses, b.pulses);
        assert_ne!(a.pulses, c.pulses);
    }

    #[test]
    fn faulty_nodes_do_not_run_protocol_code() {
        let trace = ping_sim(1)
            .faulty([0])
            .build(
                |me| Ping { me, pulsed: false },
                Box::new(SilentAdversary),
            )
            .run();
        // Node 0 (the broadcaster) is faulty and silent: nobody pulses.
        for v in 0..4 {
            assert!(trace.pulses[v].is_empty(), "node {v}");
        }
    }

    /// Timer automaton: schedules two timers, cancels one.
    struct Timers {
        keep: Option<TimerId>,
        cancel: Option<TimerId>,
    }

    impl Automaton for Timers {
        type Msg = ();

        fn on_init(&mut self, ctx: &mut dyn Context<()>) {
            self.keep = Some(ctx.set_timer_at(LocalTime::from_millis(2.0)));
            let c = ctx.set_timer_at(LocalTime::from_millis(1.0));
            ctx.cancel_timer(c);
            self.cancel = Some(c);
        }

        fn on_message(&mut self, _: NodeId, _: (), _: &mut dyn Context<()>) {}

        fn on_timer(&mut self, t: TimerId, ctx: &mut dyn Context<()>) {
            assert_eq!(Some(t), self.keep, "cancelled timer fired");
            ctx.pulse(1);
        }
    }

    #[test]
    fn cancelled_timers_do_not_fire() {
        let trace = SimBuilder::new(1)
            .horizon(Time::from_secs(1.0))
            .build(
                |_| Timers {
                    keep: None,
                    cancel: None,
                },
                Box::new(SilentAdversary),
            )
            .run();
        assert_eq!(trace.pulses[0].len(), 1);
        assert!((trace.pulses[0][0] - Time::from_millis(2.0)).abs() < Dur::from_nanos(1.0));
    }

    /// Sets a fresh timer every millisecond and — the regression under
    /// test — cancels each timer *after* it has already fired. The old
    /// engine remembered every such cancellation in a `HashSet` for the
    /// rest of the run (one leaked entry per pulse); the generation-stamped
    /// slab must instead recycle a bounded number of slots.
    struct CancelAfterFire {
        fired: u64,
        limit: u64,
    }

    impl Automaton for CancelAfterFire {
        type Msg = ();

        fn on_init(&mut self, ctx: &mut dyn Context<()>) {
            ctx.set_timer_at(LocalTime::from_millis(1.0));
        }

        fn on_message(&mut self, _: NodeId, _: (), _: &mut dyn Context<()>) {}

        fn on_timer(&mut self, t: TimerId, ctx: &mut dyn Context<()>) {
            // Stale cancel: `t` has just fired. Must be a no-op, and must
            // not grow any engine-side bookkeeping.
            ctx.cancel_timer(t);
            self.fired += 1;
            if self.fired < self.limit {
                let next = LocalTime::from_millis(1.0 + self.fired as f64);
                ctx.set_timer_at(next);
                // One extra timer per round, cancelled before it fires, so
                // slot recycling (not just sequential growth) is exercised.
                let decoy = ctx.set_timer_at(next + Dur::from_micros(100.0));
                ctx.cancel_timer(decoy);
            } else {
                ctx.pulse(1);
            }
        }
    }

    #[test]
    fn timer_bookkeeping_stays_bounded_across_pulses() {
        let rounds = 1000;
        let trace = SimBuilder::new(1)
            .horizon(Time::from_secs(10.0))
            .build(
                |_| CancelAfterFire {
                    fired: 0,
                    limit: rounds,
                },
                Box::new(SilentAdversary),
            )
            .run();
        assert_eq!(trace.pulses[0].len(), 1, "automaton ran to completion");
        // 1000 fired-then-cancelled timers and 999 cancelled decoys flowed
        // through; at no point were more than 2 pending, and the slab must
        // reflect that instead of growing with the round count.
        assert!(
            trace.timer_slots_high_water <= 2,
            "timer slab high-water {} grew with run length",
            trace.timer_slots_high_water
        );
    }

    #[test]
    fn timers_respect_clock_drift() {
        // Clock runs at rate 1.25: local 2 ms is reached at real 1.6 ms.
        let clocks = vec![crusader_time::HardwareClock::with_offset_and_rate(
            Dur::ZERO,
            1.25,
        )];
        let trace = SimBuilder::new(1)
            .clocks(clocks, 1.25)
            .horizon(Time::from_secs(1.0))
            .build(
                |_| Timers {
                    keep: None,
                    cancel: None,
                },
                Box::new(SilentAdversary),
            )
            .run();
        assert!((trace.pulses[0][0] - Time::from_micros(1600.0)).abs() < Dur::from_nanos(1.0));
    }

    /// A signed message type for knowledge-gate tests.
    #[derive(Debug, Clone)]
    struct Signed(SignedClaim);

    impl CarriesSignatures for Signed {
        fn for_each_claim(&self, f: &mut dyn FnMut(SignedClaim)) {
            f(self.0.clone());
        }
    }

    /// Node 0 sends its signature to node 1 (honest) only. The adversary
    /// (node 2) tries to forward that signature to node 1 — which it must
    /// not be able to do, having never received it.
    struct SignSender {
        me: NodeId,
    }

    impl Automaton for SignSender {
        type Msg = Signed;

        fn on_init(&mut self, ctx: &mut dyn Context<Signed>) {
            if self.me == NodeId::new(0) {
                let sig = ctx.signer().sign(b"secret");
                ctx.send(
                    NodeId::new(1),
                    Signed(SignedClaim::new(self.me, &b"secret"[..], sig)),
                );
            }
        }

        fn on_message(&mut self, _f: NodeId, msg: Signed, ctx: &mut dyn Context<Signed>) {
            // Count arrival of a *valid* claim as a pulse.
            let c = &msg.0;
            if ctx.verifier().verify(c.signer, &c.message, &c.signature) {
                ctx.pulse(1);
            }
        }

        fn on_timer(&mut self, _t: TimerId, _ctx: &mut dyn Context<Signed>) {}
    }

    /// Adversary that replays any claim it has seen, and also fabricates a
    /// copy of node 0's claim it never saw (blocked by the engine).
    struct Replayer {
        sent: bool,
    }

    impl Adversary<Signed> for Replayer {
        fn on_init(&mut self, api: &mut AdversaryApi<'_, Signed>) {
            // Forge attempt: sign as corrupted node is fine...
            let own = api.signer().sign_as(NodeId::new(2), b"mine");
            api.send_as(
                NodeId::new(2),
                NodeId::new(3),
                Signed(SignedClaim::new(NodeId::new(2), &b"mine"[..], own)),
            );
            // ...but replaying node 0's signature without having seen it
            // must be blocked. We cannot construct a valid claim here (no
            // signer for node 0); emulate the strongest attempt: an invalid
            // tag. The knowledge gate fires before verification anyway.
            api.send_as(
                NodeId::new(2),
                NodeId::new(3),
                Signed(SignedClaim::new(
                    NodeId::new(0),
                    &b"secret"[..],
                    crusader_crypto::Signature::Symbolic(0),
                )),
            );
            self.sent = true;
        }
    }

    #[test]
    fn knowledge_gate_blocks_unlearned_signatures() {
        let trace = SimBuilder::new(4)
            .faulty([2])
            .link(Dur::from_millis(1.0), Dur::from_micros(100.0))
            .horizon(Time::from_secs(1.0))
            .build(|me| SignSender { me }, Box::new(Replayer { sent: false }))
            .run();
        assert_eq!(trace.forgeries_blocked, 1);
        // Node 1 got the honest claim; node 3 got only the corrupted
        // node's own claim (valid — pulses too).
        assert_eq!(trace.pulses[1].len(), 1);
        assert_eq!(trace.pulses[3].len(), 1);
    }

    #[test]
    fn drift_models_integrate_with_builder() {
        let trace = SimBuilder::new(3)
            .drift(
                DriftModel::ExtremalSplit,
                1.05,
                Dur::from_micros(100.0),
            )
            .horizon(Time::from_secs(0.1))
            .build(
                |me| Ping { me, pulsed: false },
                Box::new(SilentAdversary),
            )
            .run();
        assert!(trace.pulses.iter().all(|p| p.len() == 1));
    }

    /// Every honest node pulses and broadcasts a token on each millisecond
    /// of its local clock, and ignores the tokens it receives.
    struct Ticker {
        ticks: u64,
    }

    impl Automaton for Ticker {
        type Msg = Token;

        fn on_init(&mut self, ctx: &mut dyn Context<Token>) {
            ctx.set_timer_at(LocalTime::from_millis(1.0));
        }

        fn on_message(&mut self, _: NodeId, _: Token, _: &mut dyn Context<Token>) {}

        fn on_timer(&mut self, _t: TimerId, ctx: &mut dyn Context<Token>) {
            self.ticks += 1;
            ctx.pulse(self.ticks);
            ctx.broadcast(Token);
            ctx.set_timer_at(LocalTime::from_millis(1.0 + self.ticks as f64));
        }
    }

    /// As silent as [`SilentAdversary`] but not declared passive, so the
    /// engine queues and dispatches every delivery to a faulty node.
    struct Watching;

    impl<M> Adversary<M> for Watching {}

    /// Under a passive adversary the engine counts deliveries to faulty
    /// nodes instead of queueing them. Whatever stops the run — the
    /// horizon, `max_pulses`, or an event cap tripped by a counted
    /// delivery or by a queued event — the trace must be the one the
    /// queued path gives.
    #[test]
    fn tallied_deliveries_leave_the_trace_unchanged() {
        let mut limits: Vec<(Option<u64>, u64)> = vec![(None, u64::MAX), (Some(200), u64::MAX)];
        limits.extend((0..40).chain(5_000..5_040).map(|cap| (None, cap)));
        for delays in [DelayModel::MaxAlways, DelayModel::Random] {
            for &(pulses, cap) in &limits {
                let run = |adversary: Box<dyn Adversary<Token>>| {
                    let builder = SimBuilder::new(6)
                        .faulty([4, 5])
                        .delays(delays.clone())
                        .horizon(Time::from_millis(300.5))
                        .max_events(cap);
                    let builder = match pulses {
                        Some(k) => builder.max_pulses(k),
                        None => builder,
                    };
                    builder.build(|_| Ticker { ticks: 0 }, adversary).run()
                };
                let (tallied, queued) = (run(Box::new(SilentAdversary)), run(Box::new(Watching)));
                let case = format!("{delays:?}, max_pulses {pulses:?}, max_events {cap}");
                assert_eq!(tallied.pulses, queued.pulses, "{case}");
                assert_eq!(tallied.violations, queued.violations, "{case}");
                assert_eq!(tallied.events_processed, queued.events_processed, "{case}");
                assert_eq!(tallied.messages_delivered, queued.messages_delivered, "{case}");
                assert_eq!(tallied.finished_at, queued.finished_at, "{case}");
                assert_eq!(queued.tallied_deliveries, 0, "{case}");
                if cap == u64::MAX && pulses.is_none() {
                    // About 300 broadcasts × 4 senders × 2 faulty
                    // recipients land by the horizon: enough for the tally
                    // to fold mid-run.
                    assert!(tallied.tallied_deliveries > 2_000, "{case}");
                }
            }
        }
    }

    #[test]
    fn faulty_set_is_exposed() {
        let sim = SimBuilder::new(3).faulty([1]).build(
            |me| Ping { me, pulsed: false },
            Box::new(SilentAdversary),
        );
        assert_eq!(sim.honest(), &[NodeId::new(0), NodeId::new(2)]);
        assert_eq!(sim.clocks().len(), 3);
        let _ = BTreeSet::from([1]);
    }
}
