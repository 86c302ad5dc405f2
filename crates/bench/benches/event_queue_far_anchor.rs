//! Criterion: the ladder event queue under a far-future first push.
//!
//! The same near-sorted stream — 64 nodes keeping 4 096 unsigned tokens
//! circulating by unicast, every hop a delay in `[d − u, d]` — runs twice:
//! as is, and with node 0 arming a timer 10 000 queue buckets out as the
//! very first push of the run (what a chaos scenario's `Recover` event,
//! or any automaton that arms a far timer first, does to the queue). The
//! far entry used to anchor the queue's tiers on itself and turn every
//! later push into a sorted insert over everything pending; with the
//! tiers anchored at the pop frontier the two variants should time within
//! noise of each other. `Trace::queue_splice_count` is asserted small on
//! both, so the bench fails loudly rather than just slowly.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crusader_crypto::{CarriesSignatures, NodeId};
use crusader_sim::{Automaton, Context, SilentAdversary, SimBuilder, TimerId, Trace};
use crusader_time::{Dur, LocalTime, Time};

const N: usize = 64;
/// `d = 1 ms`; a queue bucket is `d / 8` wide.
const D_MS: f64 = 1.0;
/// The relay runs for 48 delay horizons (384 buckets, three ladder
/// epochs; ~200 k events) and stops well short of the far timer at
/// 1 250 `d`.
const HORIZON_MS: f64 = 48.0 * D_MS;
const FAR_TIMER_MS: f64 = 10_000.0 * D_MS / 8.0;

#[derive(Clone, Debug)]
struct Token;

impl CarriesSignatures for Token {}

struct Relay {
    far_first: bool,
}

impl Automaton for Relay {
    type Msg = Token;

    fn on_init(&mut self, ctx: &mut dyn Context<Token>) {
        if self.far_first && ctx.me().index() == 0 {
            ctx.set_timer_at(LocalTime::from_millis(FAR_TIMER_MS));
        }
        ctx.broadcast(Token);
    }

    fn on_message(&mut self, from: NodeId, token: Token, ctx: &mut dyn Context<Token>) {
        let next = (ctx.me().index() + from.index() + 1) % ctx.n();
        ctx.send(NodeId::new(next), token);
    }

    fn on_timer(&mut self, _: TimerId, _: &mut dyn Context<Token>) {}
}

fn relay(far_first: bool) -> Trace {
    SimBuilder::new(N)
        .link(Dur::from_millis(D_MS), Dur::from_millis(D_MS / 10.0))
        .horizon(Time::from_millis(HORIZON_MS))
        .build(|_| Relay { far_first }, Box::new(SilentAdversary))
        .run()
}

fn bench_far_anchor(c: &mut Criterion) {
    let near = relay(false);
    let far = relay(true);
    assert_eq!(
        near.messages_delivered, far.messages_delivered,
        "the far timer must not change the stream"
    );
    for trace in [&near, &far] {
        assert!(
            trace.queue_splice_count <= trace.events_processed / 100,
            "{} of {} events were spliced into the sorted run",
            trace.queue_splice_count,
            trace.events_processed
        );
    }

    let mut group = c.benchmark_group("event_queue_far_anchor");
    group.sample_size(20);
    for (name, far_first) in [("near_only", false), ("far_first", true)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &far_first,
            |b, &far_first| {
                b.iter(|| relay(far_first).events_processed);
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_far_anchor);
criterion_main!(benches);
