//! The count gate on the batched message path: a saturated unicast relay
//! must move several messages per channel operation in both directions.
//! It sits in a test binary of its own because it keeps every core busy
//! while it runs, which the wall-clock tests elsewhere would feel.

use std::time::Duration;

use crusader_crypto::{CarriesSignatures, NodeId};
use crusader_runtime::{run, RuntimeConfig};
use crusader_sim::{Automaton, Context, TimerId};
use crusader_time::Dur;

#[derive(Clone, Debug)]
struct Note;
impl CarriesSignatures for Note {}

/// Keeps 1024 notes per node going round by unicast: whoever gets one
/// passes it on to the node after the sender.
struct Relay;

impl Automaton for Relay {
    type Msg = Note;

    fn on_init(&mut self, ctx: &mut dyn Context<Note>) {
        let (me, n) = (ctx.me().index(), ctx.n());
        (0..1024).for_each(|i| ctx.send(NodeId::new((me + 1 + i % (n - 1)) % n), Note));
    }

    fn on_message(&mut self, from: NodeId, msg: Note, ctx: &mut dyn Context<Note>) {
        ctx.send(NodeId::new((from.index() + 1) % ctx.n()), msg);
    }

    fn on_timer(&mut self, _timer: TimerId, _ctx: &mut dyn Context<Note>) {}
}

/// With 8192 notes on a 5 ms link more than one comes due per
/// microsecond, and no thread wakes that often: whatever the host, a
/// sweep finds several notes for each node and a quantum forwards
/// several. What is gated is a ratio of counts; no rate is.
#[test]
fn a_saturated_relay_moves_several_messages_per_channel_operation() {
    let cfg = RuntimeConfig {
        d: Dur::from_millis(5.0),
        u: Dur::from_millis(1.0),
        run_for: Duration::from_millis(300),
        workers: Some(1),
        ..RuntimeConfig::new(8)
    };
    let report = run(&cfg, |_| Relay);
    let (delivered, sup) = (report.messages_delivered, report.supervision);
    assert_eq!(sup.net_sends_failed, 0, "{sup:?}");
    assert!(delivered >= 8 * 1024, "the notes went round: {delivered}");
    // Unicast: every delivery was one send, so deliveries per command is
    // a floor on sends per command.
    assert!(
        delivered >= 2 * sup.net_commands,
        "{delivered} deliveries in {} net commands",
        sup.net_commands
    );
    assert!(
        delivered >= 2 * sup.inbox_handoffs,
        "{delivered} deliveries in {} inbox hand-offs",
        sup.inbox_handoffs
    );
}
