//! A classic synchronous compute–send–receive round executor with a
//! *rushing* adversary, used by the synchronous algorithms of the paper:
//! Crusader Broadcast (`cb.rs`) and approximate agreement (`apa.rs`,
//! experiment E5 and `tests/apa_corollary2.rs`).
//!
//! In every round, all live honest nodes emit their messages first; the
//! rushing adversary then observes the entire honest traffic of the round
//! before choosing what the faulty nodes send (Section 2, "Synchronous
//! Execution and Rushing Adversary"). Unforgeability is enforced by
//! capability: the adversary can replay any [`crusader_crypto::SignedClaim`] it observed but
//! can only *create* signatures through a
//! [`RestrictedSigner`](crusader_crypto::RestrictedSigner).

use crusader_crypto::NodeId;

/// A node of a synchronous protocol.
pub trait RoundProtocol {
    /// Message type.
    type Msg: Clone + std::fmt::Debug;
    /// Output produced on termination.
    type Output: Clone + std::fmt::Debug;

    /// Messages this node sends at the beginning of round `round`
    /// (0-based).
    fn send(&mut self, round: usize) -> Vec<(NodeId, Self::Msg)>;

    /// Consumes the round's inbox (sorted by authenticated sender).
    /// Returning `Some` terminates the node with that output.
    fn receive(&mut self, round: usize, inbox: Vec<(NodeId, Self::Msg)>) -> Option<Self::Output>;
}

/// The rushing adversary of the synchronous model.
pub trait RushingAdversary<M> {
    /// Called once per round *after* all honest messages are fixed.
    /// `honest_traffic` lists them as `(from, to, msg)`; the return value
    /// is the faulty traffic of the round in the same shape.
    fn round(
        &mut self,
        round: usize,
        honest_traffic: &[(NodeId, NodeId, M)],
    ) -> Vec<(NodeId, NodeId, M)>;
}

/// A rushing adversary that never sends anything (crash faults).
#[derive(Clone, Copy, Debug, Default)]
pub struct SilentRushing;

impl<M> RushingAdversary<M> for SilentRushing {
    fn round(
        &mut self,
        _round: usize,
        _honest: &[(NodeId, NodeId, M)],
    ) -> Vec<(NodeId, NodeId, M)> {
        Vec::new()
    }
}

/// The result of a synchronous run.
#[derive(Clone, Debug)]
pub struct SyncRun<O> {
    /// Per-node output: `None` for faulty nodes and for honest nodes that
    /// did not terminate within `max_rounds`.
    pub outputs: Vec<Option<O>>,
    /// Number of rounds actually executed.
    pub rounds_used: usize,
}

/// Executes a synchronous protocol among `nodes` (`None` entries are
/// faulty, controlled by `adversary`).
///
/// Stops as soon as every honest node has terminated, or after
/// `max_rounds`.
///
/// # Panics
///
/// Panics if the adversary attributes a message to an honest sender
/// (channels are authenticated) or addresses a node outside the system.
pub fn run_rounds<P: RoundProtocol>(
    mut nodes: Vec<Option<P>>,
    adversary: &mut dyn RushingAdversary<P::Msg>,
    max_rounds: usize,
) -> SyncRun<P::Output> {
    let n = nodes.len();
    let mut outputs: Vec<Option<P::Output>> = (0..n).map(|_| None).collect();
    let mut rounds_used = 0;
    for round in 0..max_rounds {
        let all_done = nodes
            .iter()
            .enumerate()
            .all(|(i, p)| p.is_none() || outputs[i].is_some());
        if all_done {
            break;
        }
        rounds_used = round + 1;

        // 1. Honest nodes commit their messages.
        let mut honest_traffic: Vec<(NodeId, NodeId, P::Msg)> = Vec::new();
        for (i, node) in nodes.iter_mut().enumerate() {
            if outputs[i].is_some() {
                continue;
            }
            if let Some(p) = node {
                for (to, msg) in p.send(round) {
                    assert!(to.index() < n, "message addressed outside system");
                    honest_traffic.push((NodeId::new(i), to, msg));
                }
            }
        }

        // 2. The rushing adversary sees all of it, then commits its own.
        let faulty_traffic = adversary.round(round, &honest_traffic);

        // 3. Deliver.
        let mut inboxes: Vec<Vec<(NodeId, P::Msg)>> = (0..n).map(|_| Vec::new()).collect();
        for (from, to, msg) in honest_traffic {
            inboxes[to.index()].push((from, msg));
        }
        for (from, to, msg) in faulty_traffic {
            assert!(
                nodes[from.index()].is_none(),
                "rushing adversary impersonated honest node {from}"
            );
            assert!(to.index() < n, "message addressed outside system");
            inboxes[to.index()].push((from, msg));
        }
        for inbox in &mut inboxes {
            inbox.sort_by_key(|(from, _)| *from);
        }

        // 4. Honest nodes receive.
        for (i, inbox) in inboxes.into_iter().enumerate() {
            if outputs[i].is_some() {
                continue;
            }
            if let Some(p) = nodes[i].as_mut() {
                if let Some(out) = p.receive(round, inbox) {
                    outputs[i] = Some(out);
                }
            }
        }
    }
    SyncRun {
        outputs,
        rounds_used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echo max: each node broadcasts its value, outputs the max received
    /// after one round.
    struct MaxOnce {
        me: NodeId,
        n: usize,
        value: u64,
    }

    impl RoundProtocol for MaxOnce {
        type Msg = u64;
        type Output = u64;

        fn send(&mut self, round: usize) -> Vec<(NodeId, u64)> {
            if round == 0 {
                NodeId::all(self.n).map(|to| (to, self.value)).collect()
            } else {
                Vec::new()
            }
        }

        fn receive(&mut self, round: usize, inbox: Vec<(NodeId, u64)>) -> Option<u64> {
            let _ = self.me;
            if round == 0 {
                inbox.iter().map(|(_, v)| *v).max()
            } else {
                None
            }
        }
    }

    fn make(n: usize, faulty: &[usize]) -> Vec<Option<MaxOnce>> {
        (0..n)
            .map(|i| {
                if faulty.contains(&i) {
                    None
                } else {
                    Some(MaxOnce {
                        me: NodeId::new(i),
                        n,
                        value: (i as u64) * 10,
                    })
                }
            })
            .collect()
    }

    #[test]
    fn fault_free_run_terminates_in_one_round() {
        let run = run_rounds(make(4, &[]), &mut SilentRushing, 5);
        assert_eq!(run.rounds_used, 1);
        for out in run.outputs {
            assert_eq!(out, Some(30));
        }
    }

    #[test]
    fn silent_faulty_node_contributes_nothing() {
        let run = run_rounds(make(4, &[3]), &mut SilentRushing, 5);
        assert_eq!(run.outputs[3], None);
        for i in 0..3 {
            assert_eq!(run.outputs[i], Some(20), "node {i}");
        }
    }

    /// A rushing adversary that echoes the maximum honest value + 1 —
    /// demonstrating that it sees honest round-r traffic before sending.
    struct OneUpper {
        faulty: NodeId,
    }

    impl RushingAdversary<u64> for OneUpper {
        fn round(
            &mut self,
            _round: usize,
            honest: &[(NodeId, NodeId, u64)],
        ) -> Vec<(NodeId, NodeId, u64)> {
            let max = honest.iter().map(|(_, _, v)| *v).max().unwrap_or(0);
            honest
                .iter()
                .map(|(_, to, _)| (self.faulty, *to, max + 1))
                .collect()
        }
    }

    #[test]
    fn rushing_adversary_sees_current_round() {
        let mut adv = OneUpper {
            faulty: NodeId::new(3),
        };
        let run = run_rounds(make(4, &[3]), &mut adv, 5);
        for i in 0..3 {
            assert_eq!(run.outputs[i], Some(21), "node {i}");
        }
    }

    struct Impersonator;

    impl RushingAdversary<u64> for Impersonator {
        fn round(
            &mut self,
            _round: usize,
            _honest: &[(NodeId, NodeId, u64)],
        ) -> Vec<(NodeId, NodeId, u64)> {
            vec![(NodeId::new(0), NodeId::new(1), 999)]
        }
    }

    #[test]
    #[should_panic(expected = "impersonated")]
    fn impersonation_panics() {
        let _ = run_rounds(make(4, &[3]), &mut Impersonator, 5);
    }

    #[test]
    fn max_rounds_caps_execution() {
        struct Never;
        impl RoundProtocol for Never {
            type Msg = ();
            type Output = ();
            fn send(&mut self, _r: usize) -> Vec<(NodeId, ())> {
                Vec::new()
            }
            fn receive(&mut self, _r: usize, _i: Vec<(NodeId, ())>) -> Option<()> {
                None
            }
        }
        let run = run_rounds(vec![Some(Never), Some(Never)], &mut SilentRushing, 3);
        assert_eq!(run.rounds_used, 3);
        assert!(run.outputs.iter().all(Option::is_none));
    }
}
