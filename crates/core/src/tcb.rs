//! Timed Crusader Broadcast (Figure 2 of the paper): the per-dealer state
//! machine that CPS runs `n` instances of in every round.
//!
//! The instance logic is pure (no I/O): the surrounding automaton feeds it
//! local-time observations and it reports state transitions. This makes
//! the window arithmetic — where all the subtlety lives — directly
//! unit-testable against Lemmas 10 and 11.
//!
//! ## Protocol (node `v`, dealer `u`, round `r`)
//!
//! * The dealer sends `⟨r⟩_u` at local time `H_u(p_u^r) + θ·S`.
//! * `v` accepts the first valid `⟨r⟩_u` received *from `u`* at a local
//!   time `h ∈ (H_v(p_v^r), H_v(p_v^r) + θ(d + (θ+1)S))`, and forwards
//!   `⟨r⟩_u` to everyone at `h`. If none arrives, output `⊥`.
//! * If a valid `⟨r⟩_u` arrives *from some `x ≠ u`* at a local time
//!   `h′ ∈ (H_v(p_v^r), h + d − 2u)`, output `⊥`.
//! * Otherwise output `h` at local time `h + d − 2u`.

use crusader_time::{Dur, LocalTime};

use crate::params::{Derived, Params};

/// The local-time window constants of TCB, derived once per configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TcbWindows {
    /// Dealer's send offset after its pulse: `θ·S`.
    pub send_offset: Dur,
    /// Length of the acceptance window after the pulse:
    /// `θ(d + (θ+1)S)`.
    pub accept_window: Dur,
    /// Wait between acceptance and output: `d − 2u` (also the echo
    /// rejection horizon).
    pub decide_wait: Dur,
    /// Tolerance subtracted from strict comparisons at window boundaries.
    ///
    /// The paper's windows are open intervals whose boundary cases are
    /// measure-zero under real arithmetic; under f64 rounding an exactly
    /// boundary-valued echo could otherwise flip an honest dealer's
    /// instance to `⊥`. `eps` is about nine orders of magnitude below `u`,
    /// so it perturbs no bound of interest.
    pub eps: Dur,
    /// Whether the echo-rejection rule is active (it always is in the
    /// paper's Figure 2; ablation experiment A1 switches it off to show
    /// that without it a staggered dealer splits honest estimates far
    /// beyond the error budget δ).
    pub reject_echoes: bool,
}

impl TcbWindows {
    /// Derives the windows from model parameters.
    #[must_use]
    pub fn from_params(params: &Params, derived: &Derived) -> Self {
        Self::with_skew(params, derived.s, derived.eps)
    }

    /// The windows for skew bound `s` and boundary tolerance `eps` — the
    /// one place Figure 2's window formulas are written.
    #[must_use]
    pub fn with_skew(params: &Params, s: Dur, eps: Dur) -> Self {
        let theta = params.theta;
        TcbWindows {
            send_offset: s * theta,
            accept_window: (params.d + s * (theta + 1.0)) * theta,
            decide_wait: params.d - params.u * 2.0,
            eps,
            reject_echoes: true,
        }
    }

    /// Disables the echo-rejection rule (ablation A1 only).
    #[must_use]
    pub fn without_echo_rejection(mut self) -> Self {
        self.reject_echoes = false;
        self
    }
}

/// The decision of one TCB instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcbDecision {
    /// The dealer's broadcast was accepted at this local time (the `h`
    /// that CPS turns into an offset estimate).
    Accepted(LocalTime),
    /// `⊥`: the dealer is provably faulty (no message in the window, or
    /// an echo proved inconsistent timing).
    Bot,
}

/// Outcome of feeding a direct (dealer-channel) message to the instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DirectOutcome {
    /// The message was accepted; the node must forward `⟨r⟩_u` now.
    /// `decide_at` is the local time to finalize — `None` means an
    /// earlier echo already forced `⊥` (the forward still happens; the
    /// paper forwards unconditionally upon acceptance).
    Accepted {
        /// When to run [`TcbInstance::on_decide_timer`], if still pending.
        decide_at: Option<LocalTime>,
    },
    /// Ignored: duplicate, already decided, or outside the window.
    Ignored,
}

/// State of one TCB instance (one dealer, one round) at one node.
#[derive(Clone, Debug)]
pub struct TcbInstance {
    pulse_local: LocalTime,
    accepted_at: Option<LocalTime>,
    echoes: Vec<LocalTime>,
    decision: Option<TcbDecision>,
}

impl TcbInstance {
    /// Creates the instance at the node's round-`r` pulse (local time).
    #[must_use]
    pub fn new(pulse_local: LocalTime) -> Self {
        TcbInstance {
            pulse_local,
            accepted_at: None,
            echoes: Vec::new(),
            decision: None,
        }
    }

    /// The decision, once made.
    #[must_use]
    pub fn decision(&self) -> Option<TcbDecision> {
        self.decision
    }

    /// The acceptance time, if the direct message was accepted.
    #[must_use]
    pub fn accepted_at(&self) -> Option<LocalTime> {
        self.accepted_at
    }

    /// A valid `⟨r⟩_u` arrived on the dealer's own channel at local `h`.
    pub fn on_direct(&mut self, h: LocalTime, w: &TcbWindows) -> DirectOutcome {
        if self.decision.is_some() || self.accepted_at.is_some() {
            return DirectOutcome::Ignored;
        }
        // Open window (pulse, pulse + accept_window); the upper comparison
        // is relaxed by eps in the *accepting* direction (honest dealers
        // can hit the boundary exactly under extremal drift and delays).
        if h <= self.pulse_local || h >= self.pulse_local + w.accept_window + w.eps {
            return DirectOutcome::Ignored;
        }
        self.accepted_at = Some(h);
        // Echoes that already arrived inside (pulse, h + decide_wait)
        // force ⊥; the rejection comparison is strict minus eps so that a
        // boundary-exact honest echo (h′ − h = d − 2u) never rejects.
        let horizon = h + w.decide_wait - w.eps;
        if w.reject_echoes && self.echoes.iter().any(|&e| e < horizon) {
            self.decision = Some(TcbDecision::Bot);
            DirectOutcome::Accepted { decide_at: None }
        } else {
            DirectOutcome::Accepted {
                decide_at: Some(h + w.decide_wait),
            }
        }
    }

    /// A valid `⟨r⟩_u` arrived from `x ≠ u` at local `h`. Returns `true`
    /// iff this just decided the instance (to `⊥`).
    pub fn on_echo(&mut self, h: LocalTime, w: &TcbWindows) -> bool {
        if self.decision.is_some() {
            return false;
        }
        if h <= self.pulse_local {
            // Outside the (open) rejection window: delivered at or before
            // the pulse. The paper ignores such messages entirely.
            return false;
        }
        self.echoes.push(h);
        if !w.reject_echoes {
            return false;
        }
        if let Some(ha) = self.accepted_at {
            if h < ha + w.decide_wait - w.eps {
                self.decision = Some(TcbDecision::Bot);
                return true;
            }
        }
        false
    }

    /// The acceptance deadline (`pulse + accept_window`) passed. Returns
    /// `true` iff this just decided the instance (to `⊥`).
    pub fn on_accept_deadline(&mut self) -> bool {
        if self.decision.is_none() && self.accepted_at.is_none() {
            self.decision = Some(TcbDecision::Bot);
            true
        } else {
            false
        }
    }

    /// The decide timer (`h + decide_wait`) fired. Returns the accepted
    /// local time iff this just decided the instance.
    pub fn on_decide_timer(&mut self) -> Option<LocalTime> {
        if self.decision.is_some() {
            return None;
        }
        let h = self
            .accepted_at
            .expect("decide timer only armed after acceptance");
        self.decision = Some(TcbDecision::Accepted(h));
        Some(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crusader_time::Dur;

    fn windows() -> TcbWindows {
        // d = 1ms, u = 50us, θS = 80us, window = 1.3ms.
        TcbWindows {
            send_offset: Dur::from_micros(80.0),
            accept_window: Dur::from_micros(1300.0),
            decide_wait: Dur::from_micros(900.0),
            eps: Dur::from_nanos(0.01),
            reject_echoes: true,
        }
    }

    fn at(us: f64) -> LocalTime {
        LocalTime::from_micros(us)
    }

    #[test]
    fn honest_flow_accept_then_decide() {
        let w = windows();
        let mut inst = TcbInstance::new(at(1000.0));
        let outcome = inst.on_direct(at(2000.0), &w);
        let DirectOutcome::Accepted {
            decide_at: Some(decide),
        } = outcome
        else {
            panic!("expected acceptance, got {outcome:?}");
        };
        assert_eq!(decide, at(2900.0));
        assert_eq!(inst.accepted_at(), Some(at(2000.0)));
        // Echo arriving exactly at the horizon (d − 2u after acceptance)
        // must NOT reject — Lemma 10's worst case for honest dealers.
        assert!(!inst.on_echo(at(2900.0), &w));
        assert_eq!(inst.on_decide_timer(), Some(at(2000.0)));
        assert_eq!(inst.decision(), Some(TcbDecision::Accepted(at(2000.0))));
    }

    #[test]
    fn early_echo_after_acceptance_rejects() {
        let w = windows();
        let mut inst = TcbInstance::new(at(1000.0));
        assert!(matches!(
            inst.on_direct(at(2000.0), &w),
            DirectOutcome::Accepted { decide_at: Some(_) }
        ));
        // Echo strictly inside (pulse, h + d − 2u): ⊥.
        assert!(inst.on_echo(at(2500.0), &w));
        assert_eq!(inst.decision(), Some(TcbDecision::Bot));
        // Decide timer later: no double decision.
        assert_eq!(inst.on_decide_timer(), None);
    }

    #[test]
    fn echo_before_acceptance_rejects_on_accept() {
        let w = windows();
        let mut inst = TcbInstance::new(at(1000.0));
        assert!(!inst.on_echo(at(1500.0), &w)); // no decision yet
        let outcome = inst.on_direct(at(2000.0), &w);
        assert_eq!(outcome, DirectOutcome::Accepted { decide_at: None });
        assert_eq!(inst.decision(), Some(TcbDecision::Bot));
    }

    #[test]
    fn echo_at_or_before_pulse_is_ignored() {
        let w = windows();
        let mut inst = TcbInstance::new(at(1000.0));
        assert!(!inst.on_echo(at(1000.0), &w)); // exactly at pulse: outside open window
        assert!(!inst.on_echo(at(900.0), &w));
        assert!(matches!(
            inst.on_direct(at(2000.0), &w),
            DirectOutcome::Accepted { decide_at: Some(_) }
        ));
        assert_eq!(inst.decision(), None, "pre-pulse echoes must not reject");
    }

    #[test]
    fn direct_outside_window_ignored() {
        let w = windows();
        let mut inst = TcbInstance::new(at(1000.0));
        assert_eq!(inst.on_direct(at(1000.0), &w), DirectOutcome::Ignored);
        assert_eq!(inst.on_direct(at(2400.0), &w), DirectOutcome::Ignored); // 1000+1300=2300 < 2400
        assert!(inst.on_accept_deadline());
        assert_eq!(inst.decision(), Some(TcbDecision::Bot));
    }

    #[test]
    fn duplicate_direct_ignored() {
        let w = windows();
        let mut inst = TcbInstance::new(at(1000.0));
        assert!(matches!(
            inst.on_direct(at(2000.0), &w),
            DirectOutcome::Accepted { .. }
        ));
        assert_eq!(inst.on_direct(at(2100.0), &w), DirectOutcome::Ignored);
    }

    #[test]
    fn deadline_after_acceptance_does_not_bot() {
        let w = windows();
        let mut inst = TcbInstance::new(at(1000.0));
        let _ = inst.on_direct(at(2000.0), &w);
        assert!(!inst.on_accept_deadline());
        assert_eq!(inst.decision(), None);
    }

    #[test]
    fn no_message_no_decision_until_deadline() {
        let _w = windows();
        let mut inst = TcbInstance::new(at(1000.0));
        assert_eq!(inst.decision(), None);
        assert!(inst.on_accept_deadline());
        assert!(!inst.on_accept_deadline(), "second deadline is a no-op");
    }

    #[test]
    fn echo_after_decision_is_ignored() {
        let w = windows();
        let mut inst = TcbInstance::new(at(1000.0));
        let _ = inst.on_direct(at(2000.0), &w);
        let _ = inst.on_decide_timer();
        assert!(!inst.on_echo(at(2901.0), &w));
        assert_eq!(inst.decision(), Some(TcbDecision::Accepted(at(2000.0))));
    }

    #[test]
    fn windows_from_params_match_figure_2() {
        let params = Params::max_resilience(
            4,
            Dur::from_millis(1.0),
            Dur::from_micros(50.0),
            1.01,
        );
        let derived = params.derive().unwrap();
        let w = TcbWindows::from_params(&params, &derived);
        let s = derived.s.as_secs();
        assert!((w.send_offset.as_secs() - 1.01 * s).abs() < 1e-15);
        let expect_window = 1.01 * (1e-3 + 2.01 * s);
        assert!((w.accept_window.as_secs() - expect_window).abs() < 1e-12);
        assert!((w.decide_wait.as_secs() - 0.9e-3).abs() < 1e-15);
        assert!(w.eps > Dur::ZERO && w.eps < Dur::from_nanos(1.0));
    }

    #[test]
    fn ablated_windows_never_reject() {
        let w = windows().without_echo_rejection();
        let mut inst = TcbInstance::new(at(1000.0));
        assert!(!inst.on_echo(at(1500.0), &w));
        assert!(matches!(
            inst.on_direct(at(2000.0), &w),
            DirectOutcome::Accepted { decide_at: Some(_) }
        ));
        assert!(!inst.on_echo(at(2100.0), &w));
        assert_eq!(inst.on_decide_timer(), Some(at(2000.0)));
    }

    #[test]
    fn boundary_echo_with_f64_noise_does_not_reject() {
        // Regression guard for the eps tolerance: echo lands one ulp below
        // the exact horizon.
        let w = windows();
        let mut inst = TcbInstance::new(at(1000.0));
        let _ = inst.on_direct(at(2000.0), &w);
        let horizon = at(2000.0) + w.decide_wait;
        let just_below = LocalTime::from_secs(f64::from_bits(
            horizon.as_secs().to_bits() - 8, // a few ulps below
        ));
        assert!(!inst.on_echo(just_below, &w));
        assert_eq!(inst.decision(), None);
    }
}
