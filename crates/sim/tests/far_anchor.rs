//! The event queue under a far-future first push, through `Sim::run`.
//!
//! The same near-sorted stream — 64 nodes keeping their unsigned tokens
//! circulating by unicast, every hop a delay in `[d − u, d]` — runs
//! twice: as is, and with node 0 arming a timer 10 000 queue buckets out
//! as the very first push of the run (what a chaos scenario's `Recover`
//! event, or any automaton that arms a far timer first, does to the
//! queue). The far entry must wait on the queue's heap while the bucket
//! window slides with the pops, not anchor the ring on itself: spills
//! plus splices (`Trace::queue_spill_count` + `queue_splice_count`, the
//! pushes that leave the ring) stay ≤ 1 % of events on both runs. The
//! queue-level twin of this check is `far_future_anchor_stays_a_ladder`
//! in `src/event.rs`.

use crusader_crypto::{CarriesSignatures, NodeId};
use crusader_sim::{Automaton, Context, SilentAdversary, SimBuilder, TimerId, Trace};
use crusader_time::{Dur, LocalTime, Time};

const N: usize = 64;
/// `d = 1 ms`; a queue bucket is `d / 8` wide.
const D_MS: f64 = 1.0;
/// The relay runs for 48 delay horizons (384 buckets, three ring spans;
/// ~200 k events) and stops well short of the far timer at 1 250 `d`.
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

#[test]
fn far_first_timer_keeps_the_relay_on_the_ring() {
    let near = relay(false);
    let far = relay(true);
    assert_eq!(
        near.messages_delivered, far.messages_delivered,
        "the far timer must not change the stream"
    );
    for trace in [&near, &far] {
        let off_ring = trace.queue_spill_count + trace.queue_splice_count;
        assert!(
            off_ring <= trace.events_processed / 100,
            "{} spills + {} splices of {} events left the ring",
            trace.queue_spill_count,
            trace.queue_splice_count,
            trace.events_processed
        );
    }
}
