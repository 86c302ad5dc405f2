//! The simulator-side Byzantine injection hook.
//!
//! The engine itself enforces the timeline's crash, cut, storm and
//! flood windows on *honest* traffic (see `crusader_sim::chaos`);
//! [`ChaosAdversary`] adds the Byzantine half of a round-flooding
//! attack: during flood windows, every message delivered to a corrupted
//! node is replayed to every honest node — rushed at the minimum legal
//! faulty-link delay when the window says so. Replays carry only
//! signatures the adversary legitimately learned from the delivery, so
//! the engine's forgery gate stays closed; the attack is pure
//! amplification and rushing, exactly the adversary the paper's
//! signature discipline is built to absorb.
//!
//! Everything here is deterministic and runs in the engine's
//! sequential adversary phase, so sharded replays stay bit-identical to
//! the single-lane reference.

use std::sync::Arc;

use crusader_crypto::NodeId;
use crusader_sim::{Adversary, AdversaryApi, ChaosTimeline};
use crusader_time::Dur;

/// A timeline-driven replay/rush adversary; see the module docs.
#[derive(Debug)]
pub struct ChaosAdversary {
    timeline: Arc<ChaosTimeline>,
    /// Delay used for rushed replays — the scenario's `d − u`, the
    /// fastest a faulty link may legally be.
    rush_delay: Dur,
    /// The current replay's destinations, reused across deliveries.
    dests: Vec<NodeId>,
}

impl ChaosAdversary {
    /// An adversary replaying into `timeline`'s flood windows, rushing
    /// at `rush_delay` (pass the scenario's `d − u`).
    #[must_use]
    pub fn new(timeline: Arc<ChaosTimeline>, rush_delay: Dur) -> Self {
        ChaosAdversary {
            timeline,
            rush_delay,
            dests: Vec::with_capacity(MAX_REPLAY_FANOUT),
        }
    }
}

/// Most honest destinations one replayed message fans out to.
///
/// Honest recipients *relay* replays with their own signature appended,
/// those relays come back to the corrupted node, and each is novel
/// (fresh signature chain) — so unbounded fan-out cascades exponentially
/// in the chain depth `h = f + 1`, which at n = 64 slams the engine's
/// event cap. A fixed fan-out models a flooder with bounded bandwidth
/// and keeps the cascade linear; at n ≤ 9 every honest node is still
/// hit, so small-system replays are unaffected.
const MAX_REPLAY_FANOUT: usize = 8;

impl<M: Clone + Send + Sync + 'static> Adversary<M> for ChaosAdversary {
    fn on_deliver(&mut self, to: NodeId, _from: NodeId, msg: &M, api: &mut AdversaryApi<'_, M>) {
        let Some(spec) = self.timeline.flood(api.now()) else {
            return;
        };
        // Replay to honest nodes only: corrupted recipients would feed
        // the replay straight back into this hook. Destinations walk the
        // ring starting after the recipient, so repeated deliveries to
        // the same node spread the flood deterministically.
        let n = api.n();
        let corrupted = api.corrupted();
        self.dests.clear();
        self.dests.extend(
            (1..n)
                .map(|step| NodeId::new((to.index() + step) % n))
                .filter(|dest| !corrupted.contains(dest))
                .take(MAX_REPLAY_FANOUT),
        );
        for _ in 0..spec.copies {
            for &dest in &self.dests {
                if spec.rush {
                    api.send_as_with_delay(to, dest, msg.clone(), self.rush_delay);
                } else {
                    api.send_as(to, dest, msg.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crusader_time::Time;

    #[test]
    fn replays_only_inside_flood_windows() {
        let mut tl = ChaosTimeline::new(4);
        tl.flood_window(
            Time::from_millis(10.0),
            Time::from_millis(20.0),
            2,
            true,
        );
        let adv = ChaosAdversary::new(Arc::new(tl), Dur::from_millis(3.0));
        assert!(adv.timeline.flood(Time::from_millis(15.0)).is_some());
        assert!(adv.timeline.flood(Time::from_millis(25.0)).is_none());
    }
}
