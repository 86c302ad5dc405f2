//! The classic Lynch–Welch pulse synchronizer (Lundelius & Lynch, PODC
//! 1984; presentation follows Dolev & Lenzen's lecture notes, Ch. 10):
//! iterated approximate agreement on pulse times *without* signatures.
//!
//! Identical skeleton to CPS — broadcast at the pulse, estimate offsets
//! from reception times, discard extremes, adjust by the midpoint — but
//! with plain (unsigned, un-echoed) broadcasts there is no `⊥` evidence,
//! so the rule must always discard `f` from each side, which only works
//! while `n > 3f`. Experiment E3 shows it breaking precisely at
//! `f = ⌈n/3⌉` under a time-equivocation attack that CPS (at the same
//! parameters) survives to `f = ⌈n/2⌉ − 1`.

use std::collections::HashMap;

use crusader_crypto::{CarriesSignatures, NodeId};
use crusader_sim::{Automaton, Context, TimerId};
use crusader_time::{Dur, LocalTime};

use crusader_core::{midpoint, Derived, ParamError, Params, TcbWindows};

/// The unsigned "I pulsed" message of Lynch–Welch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tick {
    /// Round (pulse) number, `r ≥ 1`.
    pub round: u64,
}

impl CarriesSignatures for Tick {}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TimerKind {
    Start,
    SendOwn { round: u64 },
    Deadline { round: u64 },
    NextPulse,
}

/// One Lynch–Welch node.
///
/// Uses the same derived parameters as CPS (`S`, `T`, and the identical
/// acceptance window), which satisfies the Lynch–Welch preconditions
/// whenever `n > 3f`: the CPS estimate-error bound `δ` strictly dominates
/// the signature-free one (no echo step is needed here).
#[derive(Debug)]
pub struct LwNode {
    #[allow(dead_code)] // node identity, kept for symmetry with CpsNode
    me: NodeId,
    params: Params,
    derived: Derived,
    /// CPS's TCB windows: the send offset and the acceptance window.
    windows: TcbWindows,
    round: u64,
    pulse_local: LocalTime,
    /// First reception local time per sender for the current round.
    arrivals: Vec<Option<LocalTime>>,
    timers: HashMap<TimerId, TimerKind>,
}

impl LwNode {
    /// Creates a node from pre-derived parameters.
    #[must_use]
    pub fn new(me: NodeId, params: Params, derived: Derived) -> Self {
        LwNode {
            me,
            params,
            derived,
            windows: TcbWindows::from_params(&params, &derived),
            round: 0,
            pulse_local: LocalTime::ZERO,
            arrivals: Vec::new(),
            timers: HashMap::new(),
        }
    }

    /// Creates a node, deriving parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`ParamError`] for infeasible parameters. Note that the
    /// *resilience* precondition `n > 3f` is not checked here — E3
    /// deliberately runs LW beyond it to demonstrate the breakdown.
    pub fn from_params(me: NodeId, params: &Params) -> Result<Self, ParamError> {
        Ok(Self::new(me, *params, params.derive()?))
    }

    /// Current round (0 before the first pulse).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    fn start_round(&mut self, ctx: &mut dyn Context<Tick>) {
        self.round += 1;
        self.pulse_local = ctx.local_time();
        ctx.pulse(self.round);
        self.arrivals = vec![None; self.params.n];
        let id = ctx.set_timer_at(self.pulse_local + self.windows.send_offset);
        self.timers.insert(id, TimerKind::SendOwn { round: self.round });
        let deadline = self.pulse_local + self.windows.accept_window + self.derived.eps * 2.0;
        let id = ctx.set_timer_at(deadline);
        self.timers
            .insert(id, TimerKind::Deadline { round: self.round });
    }

    fn finish_round(&mut self, ctx: &mut dyn Context<Tick>) {
        let estimates: Vec<Dur> = self
            .arrivals
            .iter()
            .flatten()
            .map(|&h| (h - self.pulse_local) - self.params.d + self.params.u - self.derived.s)
            .collect();
        // No ⊥ evidence without signatures: always discard f per side.
        let correction = match midpoint(&estimates, self.params.f, 0) {
            Some(delta) => delta,
            None => {
                ctx.mark_violation(format!(
                    "round {}: only {} estimates for f={} — cannot select",
                    self.round,
                    estimates.len(),
                    self.params.f
                ));
                Dur::ZERO
            }
        };
        let target = self.pulse_local + correction + self.derived.t_nominal;
        if target <= ctx.local_time() {
            ctx.mark_violation(format!("round {}: next pulse target in past", self.round));
        }
        let id = ctx.set_timer_at(target);
        self.timers.insert(id, TimerKind::NextPulse);
    }
}

impl Automaton for LwNode {
    type Msg = Tick;

    fn on_init(&mut self, ctx: &mut dyn Context<Tick>) {
        let id = ctx.set_timer_at(LocalTime::ZERO + self.derived.s);
        self.timers.insert(id, TimerKind::Start);
    }

    fn on_message(&mut self, from: NodeId, msg: Tick, ctx: &mut dyn Context<Tick>) {
        if self.round == 0 || msg.round != self.round {
            return;
        }
        let h = ctx.local_time();
        let window_end = self.pulse_local + self.windows.accept_window + self.derived.eps;
        if h <= self.pulse_local || h >= window_end {
            return;
        }
        let slot = &mut self.arrivals[from.index()];
        if slot.is_none() {
            *slot = Some(h);
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<Tick>) {
        let Some(kind) = self.timers.remove(&timer) else {
            return;
        };
        match kind {
            TimerKind::Start | TimerKind::NextPulse => self.start_round(ctx),
            TimerKind::SendOwn { round } => {
                if round == self.round {
                    ctx.broadcast(Tick { round });
                }
            }
            TimerKind::Deadline { round } => {
                if round == self.round {
                    self.finish_round(ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crusader_sim::metrics::pulse_stats;
    use crusader_sim::{DelayModel, SilentAdversary, SimBuilder};
    use crusader_time::drift::DriftModel;
    use crusader_time::Time;

    use super::*;
    use crate::adversary::TickStagger;

    fn params(n: usize, f: usize) -> Params {
        Params {
            f,
            ..Params::max_resilience(n, Dur::from_millis(1.0), Dur::from_micros(10.0), 1.0001)
        }
    }

    fn run_lw(
        p: Params,
        faulty: Vec<usize>,
        adv: Box<dyn crusader_sim::Adversary<Tick>>,
        pulses: u64,
        seed: u64,
    ) -> (crusader_sim::Trace, Derived) {
        let derived = p.derive().unwrap();
        let trace = SimBuilder::new(p.n)
            .faulty(faulty)
            .link(p.d, p.u)
            .delays(DelayModel::Random)
            .drift(DriftModel::RandomStable, p.theta, derived.s)
            .seed(seed)
            .horizon(Time::from_secs(60.0))
            .max_pulses(pulses)
            .build(|me| LwNode::new(me, p, derived), adv)
            .run();
        (trace, derived)
    }

    #[test]
    fn fault_free_converges() {
        let p = params(4, 1);
        let (trace, derived) = run_lw(p, vec![], Box::new(SilentAdversary), 10, 1);
        let honest: Vec<NodeId> = NodeId::all(4).collect();
        let stats = pulse_stats(&trace, &honest);
        assert_eq!(stats.complete_pulses, 10);
        assert!(stats.max_skew <= derived.s, "skew {}", stats.max_skew);
        assert!(trace.violations.is_empty(), "{:?}", trace.violations);
    }

    #[test]
    fn tolerates_silent_faults_below_one_third() {
        let p = params(7, 2); // f = 2 < 7/3
        let (trace, derived) = run_lw(p, vec![5, 6], Box::new(SilentAdversary), 10, 3);
        let honest: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        let stats = pulse_stats(&trace, &honest);
        assert_eq!(stats.complete_pulses, 10);
        assert!(stats.max_skew <= derived.s, "skew {}", stats.max_skew);
    }

    #[test]
    fn survives_stagger_attack_below_one_third() {
        // n = 7, f = 2 < ⌈7/3⌉: the equivocation attack must not break it.
        let p = params(7, 2);
        let (trace, derived) = run_lw(
            p,
            vec![5, 6],
            Box::new(TickStagger::new(Dur::from_micros(300.0))),
            12,
            5,
        );
        let honest: Vec<NodeId> = (0..5).map(NodeId::new).collect();
        let stats = pulse_stats(&trace, &honest);
        assert_eq!(stats.complete_pulses, 12);
        assert!(
            stats.max_skew <= derived.s,
            "skew {} > S {}",
            stats.max_skew,
            derived.s
        );
    }

    #[test]
    fn breaks_at_one_third_under_stagger_attack() {
        // n = 6, f = 2 = ⌈6/3⌉: beyond the signature-free bound. The
        // stagger attack pins each honest group to its own extreme, so the
        // midpoint step stops contracting and drift accumulates round
        // after round: the skew *grows* instead of converging, eventually
        // violating the bound S that holds below n/3.
        let p = Params {
            theta: 1.003, // brisker drift makes the divergence visible fast
            ..params(6, 2)
        };
        let derived = p.derive().unwrap();
        let trace = SimBuilder::new(6)
            .faulty([4, 5])
            .link(p.d, p.u)
            .delays(DelayModel::Random)
            // Extremal split: odd nodes fast & early — the attack's
            // grouping matches, reinforcing divergence.
            .drift(DriftModel::ExtremalSplit, p.theta, derived.s)
            .seed(5)
            .horizon(Time::from_secs(120.0))
            .max_pulses(40)
            .build(
                |me| LwNode::new(me, p, derived),
                Box::new(TickStagger::new(Dur::from_micros(300.0))),
            )
            .run();
        let honest: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let stats = pulse_stats(&trace, &honest);
        assert_eq!(stats.complete_pulses, 40, "{:?}", trace.violations);
        let early = stats.skews[4];
        let late = stats.skews[39];
        assert!(
            late > early && late > derived.s,
            "expected divergence beyond n/3: pulse-5 skew {early}, pulse-40 skew {late}, S {}",
            derived.s
        );
    }
}
