//! Timer liveness under load: every node keeps running its timers while
//! one worker is busy with a message burst. A node that receives no
//! messages runs only when the network thread wakes it, so one lost
//! wake-up leaves it never firing again, and nothing else in the runtime
//! would notice; this test does. Its own test binary, because the single
//! worker is busy for the whole run.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crusader_crypto::NodeId;
use crusader_runtime::{run, RuntimeConfig};
use crusader_sim::{Automaton, Context, TimerId};
use crusader_time::Dur;
use parking_lot::Mutex;

const N: usize = 48;

/// Nodes `0..BUSY` send and receive the burst; the rest only tick.
const BUSY: usize = N / 2;

/// Busy peers each timer fire sends a message to.
const FAN_OUT: usize = 6;

/// Re-arms a 1 ms timer from every fire and, on a busy node, sends a
/// message to each of the next [`FAN_OUT`] busy nodes with it, so the
/// worker is mid-run on some node whenever a wake-up comes due. Logs the
/// host instant of every fire.
struct Ticker {
    fires: Arc<Mutex<Vec<Vec<Instant>>>>,
}

impl Ticker {
    fn arm(ctx: &mut dyn Context<()>) {
        ctx.set_timer_at(ctx.local_time() + Dur::from_millis(1.0));
    }
}

impl Automaton for Ticker {
    type Msg = ();

    fn on_init(&mut self, ctx: &mut dyn Context<()>) {
        Self::arm(ctx);
    }

    fn on_message(&mut self, _from: NodeId, _msg: (), _ctx: &mut dyn Context<()>) {}

    fn on_timer(&mut self, _timer: TimerId, ctx: &mut dyn Context<()>) {
        let me = ctx.me().index();
        self.fires.lock()[me].push(Instant::now());
        if me < BUSY {
            for k in 1..=FAN_OUT {
                ctx.send(NodeId::new((me + k) % BUSY), ());
            }
        }
        Self::arm(ctx);
    }
}

/// Each of 48 nodes on one worker, busy or quiet, fires at least a
/// quarter of the 1 ms ticks the run has room for, and keeps firing into
/// the run's last 150 ms. Drifting clocks put every deadline through the
/// emulated clock's conversions, the path on which a wake-up that fired
/// before the node's local time reached its deadline has to be
/// registered again.
#[test]
fn every_node_keeps_firing_its_timers_under_a_message_burst() {
    let fires = Arc::new(Mutex::new(vec![Vec::new(); N]));
    let run_for = Duration::from_millis(600);
    let cfg = RuntimeConfig {
        d: Dur::from_millis(2.0),
        u: Dur::from_millis(1.0),
        theta: 1.01,
        max_offset: Dur::from_millis(3.0),
        run_for,
        seed: 5,
        workers: Some(1),
        ..RuntimeConfig::new(N)
    };
    let started = Instant::now();
    let report = run(&cfg, |_| Ticker {
        fires: Arc::clone(&fires),
    });
    assert!(
        report.trace.violations.is_empty(),
        "{:?}",
        report.trace.violations
    );
    let last_window = started + run_for - Duration::from_millis(150);
    let fires = fires.lock();
    let min_fires = run_for.as_millis() as usize / 4;
    for (node, log) in fires.iter().enumerate() {
        assert!(
            log.len() >= min_fires,
            "node {node} fired {} timers, fewer than {min_fires}",
            log.len()
        );
        let last = *log.last().expect("at least one fire");
        assert!(
            last >= last_window,
            "node {node} stopped firing {:?} before the run ended",
            started + run_for - last
        );
    }
}
