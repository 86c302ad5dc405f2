//! Skew and period metrics over pulse traces, matching Definition 3 of the
//! paper (pulse synchronization: liveness, `S`-bounded skew, minimum and
//! maximum period).

use crusader_crypto::NodeId;
use crusader_time::{Dur, Time};

use crate::{ChaosTimeline, Trace};

/// Aggregate pulse-synchronization metrics for a set of (honest) nodes.
#[derive(Clone, Debug)]
pub struct PulseStats {
    /// Skew `‖p⃗_r‖ = max_v p_{v,r} − min_v p_{v,r}` per pulse (1-based
    /// pulse `r` is at index `r-1`).
    pub skews: Vec<Dur>,
    /// `sup_r ‖p⃗_r‖` — the paper's skew `S` as measured.
    pub max_skew: Dur,
    /// `inf_r { min_v p_{v,r+1} − max_v p_{v,r} }` (Definition 3).
    pub min_period: Dur,
    /// The first pulse `r` attaining `min_period` (0 below two pulses).
    pub min_period_round: usize,
    /// `sup_r { max_v p_{v,r+1} − min_v p_{v,r} }` (Definition 3).
    pub max_period: Dur,
    /// The first pulse `r` attaining `max_period` (0 below two pulses).
    pub max_period_round: usize,
    /// Number of pulses completed by all the given nodes.
    pub complete_pulses: usize,
}

/// Computes pulse statistics over `nodes` (normally the honest set).
///
/// Liveness is reported through `complete_pulses`; period bounds are
/// meaningful only when `complete_pulses ≥ 2` and default to zero
/// otherwise.
///
/// # Panics
///
/// Panics if `nodes` is empty.
#[must_use]
pub fn pulse_stats(trace: &Trace, nodes: &[NodeId]) -> PulseStats {
    assert!(!nodes.is_empty(), "need at least one node to analyze");
    let complete = trace.complete_pulses(nodes);
    // Each complete pulse's earliest and latest time over `nodes`.
    let spans: Vec<(Time, Time)> = (1..=complete)
        .map(|r| {
            let times = trace
                .pulse_times(r, nodes)
                .expect("pulse r is complete for all nodes");
            let min = times.iter().copied().min().expect("non-empty");
            (min, times.into_iter().max().expect("non-empty"))
        })
        .collect();
    let skews: Vec<Dur> = spans.iter().map(|&(min, max)| max - min).collect();
    let mut stats = PulseStats {
        max_skew: skews.iter().copied().max().unwrap_or(Dur::ZERO),
        skews,
        min_period: Dur::ZERO,
        min_period_round: 0,
        max_period: Dur::ZERO,
        max_period_round: 0,
        complete_pulses: complete,
    };
    for (r, pair) in (1..).zip(spans.windows(2)) {
        let (shortest, longest) = (pair[1].0 - pair[0].1, pair[1].1 - pair[0].0);
        if r == 1 || shortest < stats.min_period {
            (stats.min_period, stats.min_period_round) = (shortest, r);
        }
        if longest > stats.max_period {
            (stats.max_period, stats.max_period_round) = (longest, r);
        }
    }
    stats
}

/// One node recovery, measured in real time: when the node came back up
/// and how long it took to emit its first post-recovery pulse.
///
/// Computed after the fact from the pulse trace and the chaos timeline —
/// the executors record nothing extra, so enabling the metric cannot
/// perturb event order or trace hashes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResyncEvent {
    /// The recovered node.
    pub node: NodeId,
    /// The real instant the node came back up.
    pub resumed_at: Time,
    /// Real time from resumption to the node's first subsequent pulse —
    /// the time-to-resync. `None` if the node never pulsed again before
    /// the run ended.
    pub time_to_pulse: Option<Dur>,
}

/// Time-to-resync for every recovery in `chaos`'s crash schedule, in
/// `(resumed_at, node)` order.
#[must_use]
pub fn resync_times(trace: &Trace, chaos: &ChaosTimeline) -> Vec<ResyncEvent> {
    let mut out = Vec::new();
    for (at, node, down) in chaos.crash_transitions() {
        let node = NodeId::new(node);
        if down {
            continue;
        }
        let first = trace.pulses[node.index()]
            .iter()
            .copied()
            .find(|&t| t >= at);
        out.push(ResyncEvent {
            node,
            resumed_at: at,
            time_to_pulse: first.map(|t| t - at),
        });
    }
    out
}

/// Maximum skew over pulses `from..` (1-based, inclusive), ignoring the
/// initial convergence phase. Returns `None` if fewer pulses completed.
#[must_use]
pub fn steady_state_skew(stats: &PulseStats, from: usize) -> Option<Dur> {
    if from == 0 || from > stats.skews.len() {
        return None;
    }
    stats.skews[from - 1..].iter().copied().max()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crusader_time::Time;

    fn trace_from(pulses: &[&[f64]]) -> Trace {
        let mut t = Trace::new(pulses.len());
        for (v, times) in pulses.iter().enumerate() {
            for (i, secs) in times.iter().enumerate() {
                t.record_pulse(
                    NodeId::new(v),
                    (i + 1) as u64,
                    Time::from_secs(*secs),
                    false,
                );
            }
        }
        t
    }

    fn ids(n: usize) -> Vec<NodeId> {
        NodeId::all(n).collect()
    }

    #[test]
    fn skew_and_periods() {
        // Two nodes, three pulses.
        let t = trace_from(&[&[1.0, 2.0, 3.0], &[1.1, 2.05, 3.2]]);
        let s = pulse_stats(&t, &ids(2));
        assert_eq!(s.complete_pulses, 3);
        assert!((s.skews[0].as_secs() - 0.1).abs() < 1e-12);
        assert!((s.skews[1].as_secs() - 0.05).abs() < 1e-12);
        assert!((s.skews[2].as_secs() - 0.2).abs() < 1e-12);
        assert!((s.max_skew.as_secs() - 0.2).abs() < 1e-12);
        // min period: min over r of (next_min - cur_max):
        // r=1: min(2.0,2.05)-max(1.0,1.1)=0.9 ; r=2: 3.0-2.05=0.95
        assert!((s.min_period.as_secs() - 0.9).abs() < 1e-12);
        // max period: r=1: 2.05-1.0=1.05 ; r=2: 3.2-2.0=1.2
        assert!((s.max_period.as_secs() - 1.2).abs() < 1e-12);
        assert_eq!((s.min_period_round, s.max_period_round), (1, 2));
    }

    #[test]
    fn incomplete_pulses_are_truncated() {
        let t = trace_from(&[&[1.0, 2.0], &[1.0]]);
        let s = pulse_stats(&t, &ids(2));
        assert_eq!(s.complete_pulses, 1);
        assert_eq!(s.min_period, Dur::ZERO);
        assert_eq!(s.max_period, Dur::ZERO);
    }

    #[test]
    fn steady_state_skips_convergence() {
        let t = trace_from(&[&[1.0, 2.0, 3.0], &[1.5, 2.01, 3.01]]);
        let s = pulse_stats(&t, &ids(2));
        assert!((s.max_skew.as_secs() - 0.5).abs() < 1e-12);
        let steady = steady_state_skew(&s, 2).unwrap();
        assert!((steady.as_secs() - 0.01).abs() < 1e-12);
        assert_eq!(steady_state_skew(&s, 4), None);
        assert_eq!(steady_state_skew(&s, 0), None);
    }

    #[test]
    fn single_node_has_zero_skew() {
        let t = trace_from(&[&[1.0, 2.0]]);
        let s = pulse_stats(&t, &ids(1));
        assert_eq!(s.max_skew, Dur::ZERO);
        assert!((s.min_period.as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_node_set_panics() {
        let t = trace_from(&[&[1.0]]);
        let _ = pulse_stats(&t, &[]);
    }

    #[test]
    fn resync_times_from_trace_and_timeline() {
        let t = trace_from(&[&[1.0, 2.0, 3.0], &[1.0, 5.5]]);
        let mut chaos = ChaosTimeline::new(2);
        // Node 1 down over [1.5, 5.0): resumes at 5.0, pulses at 5.5.
        chaos.crash(1, Time::from_secs(1.5), Some(Time::from_secs(5.0)));
        // Node 0 down over [10, 11): never pulses again.
        chaos.crash(0, Time::from_secs(10.0), Some(Time::from_secs(11.0)));
        let events = resync_times(&t, &chaos);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].node, NodeId::new(1));
        assert_eq!(events[0].resumed_at, Time::from_secs(5.0));
        assert_eq!(events[0].time_to_pulse, Some(Dur::from_secs(0.5)));
        assert_eq!(events[1].node, NodeId::new(0));
        assert_eq!(events[1].time_to_pulse, None);
    }

    #[test]
    fn resync_skips_up_transitions_inside_other_windows() {
        let t = trace_from(&[&[1.0, 9.5]]);
        let mut chaos = ChaosTimeline::new(1);
        // Overlapping windows merge: the one resumption is at 9.0.
        chaos.crash(0, Time::from_secs(2.0), Some(Time::from_secs(6.0)));
        chaos.crash(0, Time::from_secs(5.0), Some(Time::from_secs(9.0)));
        let events = resync_times(&t, &chaos);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].resumed_at, Time::from_secs(9.0));
        assert_eq!(events[0].time_to_pulse, Some(Dur::from_secs(0.5)));
    }
}
