//! Message-arena conservation: every handle `Sim::run` hands out is
//! released by the time its queue drains.
//!
//! The engine keeps each message in flight in an arena under an integer
//! refcount and queues `u32` handles on it. A leaked handle changes no
//! trace, so no trace hash can catch one; instead `Sim::run` asserts, in
//! debug builds, that the arena is empty when the queue drains. The two drained runs here release handles on every path:
//! unicasts and broadcasts, flood copies, cut sends, deliveries to a
//! crashed node, the adversary's `SendAs` unicasts, and deliveries the
//! engine tallies instead of queueing.

use std::sync::Arc;

use crusader_crypto::{CarriesSignatures, NodeId};
use crusader_sim::{
    Adversary, AdversaryApi, Automaton, ChaosTimeline, Context, SilentAdversary, SimBuilder,
    TimerId,
};
use crusader_time::{LocalTime, Time};

#[derive(Debug, Clone)]
struct Token;
impl CarriesSignatures for Token {}

/// Ten ticks of a token broadcast plus a unicast to node 1, then
/// silence: the run drains long before its horizon.
struct Chatter(u64);

impl Automaton for Chatter {
    type Msg = Token;

    fn on_init(&mut self, ctx: &mut dyn Context<Token>) {
        ctx.set_timer_at(LocalTime::from_millis(1.0));
    }

    fn on_message(&mut self, _: NodeId, _: Token, _: &mut dyn Context<Token>) {}

    fn on_timer(&mut self, _: TimerId, ctx: &mut dyn Context<Token>) {
        self.0 += 1;
        ctx.broadcast(Token);
        ctx.send(NodeId::new(1), Token);
        if self.0 < 10 {
            ctx.set_timer_at(LocalTime::from_millis(1.0 + self.0 as f64));
        }
    }
}

/// Answers every delivery to a faulty node with a unicast to node 0.
struct Echo;

impl Adversary<Token> for Echo {
    fn on_deliver(&mut self, to: NodeId, _: NodeId, _: &Token, api: &mut AdversaryApi<'_, Token>) {
        api.send_as(to, NodeId::new(0), Token);
    }
}

#[test]
fn drained_runs_leave_no_message_in_the_arena() {
    let mut chaos = ChaosTimeline::new(6);
    chaos.crash(1, Time::from_millis(3.0), Some(Time::from_millis(6.0)));
    let only = |v: usize| (0..6).map(|i| i == v).collect();
    chaos.cut_link(
        only(0),
        only(2),
        Time::from_millis(2.0),
        Time::from_millis(5.0),
    );
    chaos.flood_window(Time::from_millis(1.0), Time::from_millis(8.0), 2, false);
    let sim = || {
        SimBuilder::new(6)
            .faulty([4, 5])
            .horizon(Time::from_secs(1.0))
    };
    let chaotic = sim()
        .chaos(Arc::new(chaos))
        .build(|_| Chatter(0), Box::new(Echo))
        .run();
    let tallied = sim().build(|_| Chatter(0), Box::new(SilentAdversary)).run();
    for trace in [&chaotic, &tallied] {
        assert!(
            trace.finished_at < Time::from_millis(20.0),
            "the run drained"
        );
        assert!(trace.violations.is_empty(), "{:?}", trace.violations);
    }
    assert!(chaotic.chaos_drops > 0 && chaotic.chaos_duplicates > 0);
    assert!(tallied.tallied_deliveries > 0);
}
