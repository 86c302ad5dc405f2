use crusader_crypto::NodeId;
use crusader_time::Time;

/// The observable record of a simulation run.
///
/// Collected by the engine; consumed by [`metrics`](crate::metrics) and by
/// tests asserting on the exact behaviour of an execution.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Per node, the real times of its pulses (`pulses[v][r-1]` is node
    /// `v`'s `r`-th pulse). Faulty nodes have empty entries.
    pub pulses: Vec<Vec<Time>>,
    /// Protocol-reported soft violations (e.g. "next pulse scheduled in the
    /// past"). Used by resilience experiments to detect breakdown without
    /// panicking.
    pub violations: Vec<String>,
    /// Number of adversarial sends dropped because they carried honest
    /// signatures the adversary had not yet learned.
    pub forgeries_blocked: u64,
    /// Total messages delivered (to honest and faulty nodes).
    pub messages_delivered: u64,
    /// Total events processed by the engine.
    pub events_processed: u64,
    /// Real time at which the simulation stopped.
    pub finished_at: Time,
    /// Most timers simultaneously pending at any point in the run — the
    /// memory bound of the engine's generation-stamped timer slab. Scales
    /// with protocol fan-out (timers outstanding per node), *not* with run
    /// length; the regression test in `engine.rs` pins that property.
    ///
    /// Under the sharded executor ([`crate::ShardedSim`]) this is the
    /// *sum* of the per-lane slab high-waters — still a valid bound on
    /// total slab memory, but an upper estimate of the single-lane value
    /// (lanes cannot observe each other's concurrent occupancy), and one
    /// of the three fields of this struct that are not bit-identical
    /// across the two executors (the others are [`queue_spill_count`] and
    /// [`queue_splice_count`]). It is deliberately excluded from the
    /// determinism trace hash for that reason.
    ///
    /// [`queue_spill_count`]: Self::queue_spill_count
    /// [`queue_splice_count`]: Self::queue_splice_count
    pub timer_slots_high_water: u64,
    /// Events that overflowed the ladder event queue's bucketed horizon
    /// into its far-future spill heap (see `crusader_sim`'s engine
    /// internals: the queue covers ~16 maximum-delay horizons ahead of
    /// the pop frontier in O(1) buckets, and anything further rides a
    /// fallback min-heap). Zero for the standard CPS scenarios — every
    /// CPS timer fires within `T + 3S < 13d` of being armed — and pinned
    /// there by a regression test; a persistently large value means the
    /// workload's timer horizon dwarfs its link delay `d` and the queue
    /// is degrading toward plain heap behaviour.
    ///
    /// When traffic undercuts a far-anchored run (a `Recover` event
    /// scheduled first, a lane holding only its next-pulse timer) the
    /// queue re-anchors its window at the pop frontier and moves the
    /// already-queued entries past the lowered horizon to the spill
    /// heap; those moves **are counted here**, once each, next to the
    /// pushes that overflowed directly. Standard CPS runs never lower
    /// the window, so their count stays zero.
    ///
    /// Purely a performance diagnostic: spilling never affects event
    /// order. Under the sharded executor it is the *sum* over the
    /// per-lane queues, which can differ from the single-lane value
    /// (lane frontiers advance independently), so — like
    /// [`timer_slots_high_water`](Self::timer_slots_high_water) — it is
    /// excluded from the determinism trace hash.
    pub queue_spill_count: u64,
    /// Pushes that landed in the ladder queue's catch-all tier and were
    /// spliced by binary search plus memmove into a sorted run already
    /// past the queue's tiny-array size (24 entries; shorter runs are
    /// the cheap path by design and are not counted) — the one push path
    /// that is not O(1). Same-instant follow-ups and zero-delay sends
    /// into a busy bucket always take it; a count above a percent or so of
    /// [`events_processed`](Self::events_processed) means the tier
    /// partition has lost the pop frontier and the queue is degrading
    /// toward one sorted array (the chaos matrix test and the
    /// chaos-smoke CI job gate that share).
    ///
    /// Purely a performance diagnostic: which tier a push lands in never
    /// affects event order. Summed over the per-lane queues under the
    /// sharded executor and excluded from the determinism trace hash,
    /// exactly like [`queue_spill_count`](Self::queue_spill_count).
    pub queue_splice_count: u64,
    /// Messages destroyed by chaos injection — deliveries to crashed
    /// nodes plus sends lost to an active link cut (see
    /// [`crate::ChaosTimeline`]). Zero when no timeline is installed.
    pub chaos_drops: u64,
    /// Extra message copies injected by chaos flood windows. Zero when
    /// no timeline is installed.
    pub chaos_duplicates: u64,
    /// Per node, pulse indices legitimately skipped by post-recovery
    /// fast-forwards (see `crusader_core`'s rejoin protocol): a node that
    /// adopts a certified round `r★` after a crash emits its next pulse
    /// with an index jump, which is not a protocol violation. Tracked so
    /// subsequent pulses compare against the jumped sequence. Empty until
    /// the first recorded pulse; all-zero for runs without recoveries.
    jump_base: Vec<u64>,
}

impl Trace {
    pub(crate) fn new(n: usize) -> Self {
        Trace {
            pulses: vec![Vec::new(); n],
            jump_base: vec![0; n],
            ..Trace::default()
        }
    }

    /// Records node `node`'s pulse `index` at real time `at`.
    ///
    /// `jump_ok` is true when the node may have fast-forwarded its round
    /// state after a crash recovery (the executors pass "was this node in
    /// any crash window"): a *forward* index jump is then bookkept in
    /// `jump_base` instead of flagged. Everything else — regressions,
    /// duplicates, jumps without recovery — is a violation, exactly as
    /// before.
    pub(crate) fn record_pulse(&mut self, node: NodeId, index: u64, at: Time, jump_ok: bool) {
        let v = node.index();
        let expected = self.pulses[v].len() as u64 + 1 + self.jump_base[v];
        if jump_ok && index > expected {
            self.jump_base[v] += index - expected;
        } else if index != expected {
            self.violations.push(format!(
                "{node} emitted pulse {index} after {} pulses",
                self.pulses[v].len()
            ));
        }
        self.pulses[v].push(at);
    }

    /// The number of pulses completed by *every* node in `nodes`.
    #[must_use]
    pub fn complete_pulses(&self, nodes: &[NodeId]) -> usize {
        nodes
            .iter()
            .map(|v| self.pulses[v.index()].len())
            .min()
            .unwrap_or(0)
    }

    /// The times of pulse `r` (1-based) across `nodes`, if all have it.
    #[must_use]
    pub fn pulse_times(&self, r: usize, nodes: &[NodeId]) -> Option<Vec<Time>> {
        assert!(r >= 1, "pulses are 1-based");
        nodes
            .iter()
            .map(|v| self.pulses[v.index()].get(r - 1).copied())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut t = Trace::new(3);
        let a = NodeId::new(0);
        let b = NodeId::new(1);
        t.record_pulse(a, 1, Time::from_secs(1.0), false);
        t.record_pulse(b, 1, Time::from_secs(1.1), false);
        t.record_pulse(a, 2, Time::from_secs(2.0), false);
        assert_eq!(t.complete_pulses(&[a, b]), 1);
        assert_eq!(
            t.pulse_times(1, &[a, b]),
            Some(vec![Time::from_secs(1.0), Time::from_secs(1.1)])
        );
        assert_eq!(t.pulse_times(2, &[a, b]), None);
        assert!(t.violations.is_empty());
    }

    #[test]
    fn out_of_order_pulse_is_a_violation() {
        let mut t = Trace::new(1);
        t.record_pulse(NodeId::new(0), 5, Time::ZERO, false);
        assert_eq!(t.violations.len(), 1);
    }

    #[test]
    fn recovery_jump_is_tolerated_then_tracked() {
        let mut t = Trace::new(1);
        let v = NodeId::new(0);
        t.record_pulse(v, 1, Time::from_secs(1.0), true);
        // Fast-forward: 2..=7 skipped while crashed.
        t.record_pulse(v, 8, Time::from_secs(8.0), true);
        t.record_pulse(v, 9, Time::from_secs(9.0), true);
        assert!(t.violations.is_empty(), "{:?}", t.violations);
        // A regression is still a violation even for a recovered node.
        t.record_pulse(v, 4, Time::from_secs(10.0), true);
        assert_eq!(t.violations.len(), 1);
    }

    #[test]
    fn complete_pulses_empty_nodes() {
        let t = Trace::new(1);
        assert_eq!(t.complete_pulses(&[]), 0);
    }
}
