//! Crusader Pulse Synchronization (Figure 3 of the paper): the main
//! algorithm, tolerating `f = ⌈n/2⌉ − 1` Byzantine faults with skew
//! `S ∈ Θ(u + (θ−1)d)`.
//!
//! Each node, per round `r`:
//!
//! 1. generates its pulse and simultaneously participates in `n` instances
//!    of [Timed Crusader Broadcast](crate::tcb), one per dealer;
//! 2. converts each accepted instance's reception time `h_{v,u}` into an
//!    offset estimate `Δ_{v,u} = h_{v,u} − H_v(p_v^r) − d + u − S` (and
//!    `⊥` for rejected instances);
//! 3. applies the approximate-agreement discard rule (sort, drop `f − b`
//!    from each end, take the midpoint — see [`crate::midpoint`](mod@crate::midpoint));
//! 4. schedules pulse `r + 1` at local time `H_v(p_v^r) + Δ + T`.

use std::collections::HashMap;

use crusader_crypto::{FxBuildHasher, NodeId, Signature};
use crusader_sim::{Automaton, Context, TimerId};
use crusader_time::{Dur, LocalTime};

use crate::messages::{pulse_sign_bytes_cached, Carry};
use crate::midpoint;
use crate::params::{Derived, ParamError, Params};
use crate::recovery::{PulseCertificate, ResyncReply};
use crate::tcb::{DirectOutcome, TcbDecision, TcbInstance, TcbWindows};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TimerKind {
    /// Initial wait until local time `S` (Figure 3's first line).
    Start,
    /// Time to broadcast our own `⟨r⟩_v` (round-tagged).
    SendOwn { round: u64 },
    /// Acceptance deadline for all instances of a round.
    AcceptDeadline { round: u64 },
    /// Finalize the decision for `dealer`'s instance.
    Decide { round: u64, dealer: usize },
    /// Generate the next pulse.
    NextPulse,
}

/// The Crusader Pulse Synchronization automaton for one node.
///
/// Runs under any [`Context`] implementation (the discrete-event simulator
/// or the wall-clock runtime).
///
/// # Example
///
/// ```
/// use crusader_core::{CpsNode, Params};
/// use crusader_crypto::NodeId;
/// use crusader_time::Dur;
///
/// let params = Params::max_resilience(
///     4,
///     Dur::from_millis(1.0),
///     Dur::from_micros(10.0),
///     1.0001,
/// );
/// let node = CpsNode::from_params(NodeId::new(0), &params)?;
/// assert_eq!(node.round(), 0); // not started yet
/// # Ok::<(), crusader_core::ParamError>(())
/// ```
#[derive(Debug)]
pub struct CpsNode {
    me: NodeId,
    params: Params,
    derived: Derived,
    windows: TcbWindows,
    /// Current round; 0 before the first pulse.
    round: u64,
    pulse_local: LocalTime,
    instances: Vec<TcbInstance>,
    undecided: usize,
    next_scheduled: bool,
    timers: HashMap<TimerId, TimerKind, FxBuildHasher>,
    /// Per dealer, the signature already verified for the current round.
    ///
    /// Within one round a node sees the same `⟨r⟩_u` up to `n` times (the
    /// direct message plus one echo per peer); the memo collapses those
    /// repeat verifications into an equality check on the signature. A
    /// *different* signature for the same dealer is still verified from
    /// scratch, so schemes admitting several valid signatures per message
    /// stay correct — this is a pure-function memo, not a trust decision.
    verified: Vec<Option<Signature>>,
    /// The latest round this node completed with `f + 1` verified dealer
    /// signatures, those signatures, and the local pulse time of that
    /// round — the pulse certificate served to recovering peers (see
    /// [`crate::recovery`]).
    cert: Option<(PulseCertificate, LocalTime)>,
}

impl CpsNode {
    /// Creates a node from pre-derived parameters.
    #[must_use]
    pub fn new(me: NodeId, params: Params, derived: Derived) -> Self {
        let windows = TcbWindows::from_params(&params, &derived);
        CpsNode {
            me,
            params,
            derived,
            windows,
            round: 0,
            pulse_local: LocalTime::ZERO,
            instances: Vec::new(),
            undecided: 0,
            next_scheduled: false,
            timers: HashMap::default(),
            verified: Vec::new(),
            cert: None,
        }
    }

    /// Creates a node, deriving the protocol quantities of Theorem 17.
    ///
    /// # Errors
    ///
    /// Propagates [`ParamError`] for infeasible parameters.
    pub fn from_params(me: NodeId, params: &Params) -> Result<Self, ParamError> {
        Ok(Self::new(me, *params, params.derive()?))
    }

    /// Creates a node with custom TCB windows (ablation experiments).
    #[must_use]
    pub fn with_windows(me: NodeId, params: Params, derived: Derived, windows: TcbWindows) -> Self {
        let mut node = Self::new(me, params, derived);
        node.windows = windows;
        node
    }

    /// Current round (0 before the first pulse).
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The derived protocol quantities in use.
    #[must_use]
    pub fn derived(&self) -> &Derived {
        &self.derived
    }

    fn start_round(&mut self, ctx: &mut dyn Context<Carry>) {
        self.round += 1;
        self.pulse_local = ctx.local_time();
        ctx.pulse(self.round);
        self.instances.clear();
        self.instances
            .resize_with(self.params.n, || TcbInstance::new(self.pulse_local));
        self.verified.clear();
        self.verified.resize(self.params.n, None);
        self.undecided = self.params.n;
        self.next_scheduled = false;
        let send_at = self.pulse_local + self.windows.send_offset;
        let id = ctx.set_timer_at(send_at);
        self.timers.insert(id, TimerKind::SendOwn { round: self.round });
        // One shared acceptance deadline (identical for every dealer);
        // 2·eps past the window so that an eps-tolerated acceptance at the
        // boundary is never raced by its own deadline.
        let deadline = self.pulse_local + self.windows.accept_window + self.windows.eps * 2.0;
        let id = ctx.set_timer_at(deadline);
        self.timers
            .insert(id, TimerKind::AcceptDeadline { round: self.round });
    }

    fn check_completion(&mut self, ctx: &mut dyn Context<Carry>) {
        if self.undecided > 0 || self.next_scheduled || self.round == 0 {
            return;
        }
        self.next_scheduled = true;
        self.snapshot_cert();
        let mut estimates = Vec::with_capacity(self.params.n);
        let mut bots = 0usize;
        for inst in &self.instances {
            match inst.decision() {
                Some(TcbDecision::Accepted(h)) => {
                    // Δ_{v,u} = h − H_v(p_v^r) − d + u − S.
                    let delta =
                        (h - self.pulse_local) - self.params.d + self.params.u - self.derived.s;
                    estimates.push(delta);
                }
                Some(TcbDecision::Bot) => bots += 1,
                None => unreachable!("undecided instance at completion"),
            }
        }
        let correction = match midpoint::midpoint(&estimates, self.params.f, bots) {
            Some(delta) => delta,
            None => {
                // More ⊥ than the fault budget explains: the fault
                // assumption is violated. Free-run (Δ = 0) and report.
                ctx.mark_violation(format!(
                    "round {}: {} ⊥ outputs exceed budget f={} (n={})",
                    self.round, bots, self.params.f, self.params.n
                ));
                Dur::ZERO
            }
        };
        let target = self.pulse_local + correction + self.derived.t_nominal;
        if target <= ctx.local_time() {
            ctx.mark_violation(format!(
                "round {}: next pulse target {target} not after now {}",
                self.round,
                ctx.local_time()
            ));
        }
        let id = ctx.set_timer_at(target);
        self.timers.insert(id, TimerKind::NextPulse);
    }

    /// Captures the current round's pulse certificate if `f + 1` dealer
    /// signatures verified. Called once per completed round; the snapshot
    /// is pure node-local state, so it never perturbs event order.
    fn snapshot_cert(&mut self) {
        let need = self.params.f + 1;
        let mut sigs = Vec::with_capacity(need);
        for (dealer, sig) in self.verified.iter().enumerate() {
            if let Some(sig) = sig {
                sigs.push((NodeId::new(dealer), sig.clone()));
                if sigs.len() == need {
                    break;
                }
            }
        }
        if sigs.len() == need {
            self.cert = Some((
                PulseCertificate {
                    round: self.round,
                    sigs,
                },
                self.pulse_local,
            ));
        }
    }

    pub(crate) fn params(&self) -> &Params {
        &self.params
    }

    /// The answer to a peer's resync request: the latest certificate this
    /// node holds, plus how long ago (on this node's clock) the certified
    /// pulse fired. `None` until a first round has completed with `f + 1`
    /// verified signatures.
    pub(crate) fn resync_reply(&self, now_local: LocalTime) -> Option<ResyncReply> {
        let (cert, pulsed_at) = self.cert.as_ref()?;
        Some(ResyncReply {
            cert: cert.clone(),
            since_pulse: now_local - *pulsed_at,
        })
    }

    /// Clears all round-in-progress state after a crash, keeping the node
    /// mute until a resync verdict arrives. Instances and memos are
    /// *resized*, not just cleared, so a straggler delivery for the stale
    /// round indexes safely; `next_scheduled = true` blocks any such
    /// delivery from scheduling a pulse; the cleared timer map turns every
    /// pre-crash timer that still fires into a recognized no-op.
    pub(crate) fn reset_for_rejoin(&mut self) {
        self.timers.clear();
        self.instances.clear();
        self.instances
            .resize_with(self.params.n, || TcbInstance::new(self.pulse_local));
        self.verified.clear();
        self.verified.resize(self.params.n, None);
        self.undecided = self.params.n;
        self.next_scheduled = true;
    }

    /// Adopts a certified round and rejoins the pulse schedule.
    ///
    /// `since_pulse` is the (clamped, aggregated) local-clock age of round
    /// `round`'s pulse as reported by peers. Whole nominal periods are
    /// folded into the round number so the reconstructed pulse time lands
    /// within one period of now, then the next pulse is scheduled exactly
    /// one nominal period after it — from there the ordinary midpoint
    /// correction of the next completed round pulls the node back into
    /// `S`-bounded sync.
    pub(crate) fn fast_forward(
        &mut self,
        round: u64,
        since_pulse: Dur,
        ctx: &mut dyn Context<Carry>,
    ) {
        let t = self.derived.t_nominal;
        let periods = (since_pulse / t).floor().max(0.0);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        {
            self.round = round + periods as u64;
        }
        self.pulse_local = ctx.local_time() - (since_pulse - t * periods);
        self.instances.clear();
        self.instances
            .resize_with(self.params.n, || TcbInstance::new(self.pulse_local));
        self.verified.clear();
        self.verified.resize(self.params.n, None);
        self.undecided = self.params.n;
        self.next_scheduled = true;
        self.timers.clear();
        let id = ctx.set_timer_at(self.pulse_local + t);
        self.timers.insert(id, TimerKind::NextPulse);
    }

    /// Last-resort restart when no resync reply ever arrived (e.g. every
    /// peer is down too): resume pulsing on the nominal period from the
    /// stale round state and let midpoint corrections re-converge the
    /// survivors.
    pub(crate) fn free_run_restart(&mut self, ctx: &mut dyn Context<Carry>) {
        self.timers.clear();
        if self.round == 0 {
            // Crashed before its very first pulse: just start.
            self.start_round(ctx);
        } else {
            self.reset_for_rejoin();
            let id = ctx.set_timer_at(ctx.local_time() + self.derived.t_nominal);
            self.timers.insert(id, TimerKind::NextPulse);
        }
    }
}

impl Automaton for CpsNode {
    type Msg = Carry;

    fn on_init(&mut self, ctx: &mut dyn Context<Carry>) {
        // "Wait until local time S." — requires H_v(0) ∈ [0, S].
        let id = ctx.set_timer_at(LocalTime::ZERO + self.derived.s);
        self.timers.insert(id, TimerKind::Start);
    }

    fn on_message(&mut self, from: NodeId, msg: Carry, ctx: &mut dyn Context<Carry>) {
        if self.round == 0 || msg.round != self.round {
            // Early (pre-pulse) or stale: outside every window by
            // construction — see module docs of `tcb`.
            return;
        }
        let dealer = msg.dealer.index();
        if dealer >= self.params.n {
            return;
        }
        // Memoized verification (see `verified`): repeats of the round's
        // already-verified signature skip the signature check entirely.
        match &self.verified[dealer] {
            Some(sig) if *sig == msg.signature => {}
            _ => {
                if !msg.verify(ctx.verifier()) {
                    return;
                }
                if self.verified[dealer].is_none() {
                    self.verified[dealer] = Some(msg.signature.clone());
                }
            }
        }
        let h = ctx.local_time();
        if from == msg.dealer {
            match self.instances[dealer].on_direct(h, &self.windows) {
                DirectOutcome::Accepted { decide_at } => {
                    // Forward ⟨r⟩_u to all nodes at time h (Figure 2).
                    ctx.broadcast(msg.clone());
                    match decide_at {
                        Some(at) => {
                            let id = ctx.set_timer_at(at);
                            self.timers.insert(
                                id,
                                TimerKind::Decide {
                                    round: self.round,
                                    dealer,
                                },
                            );
                        }
                        None => {
                            // An earlier echo already forced ⊥.
                            self.undecided -= 1;
                            self.check_completion(ctx);
                        }
                    }
                }
                DirectOutcome::Ignored => {}
            }
        } else if self.instances[dealer].on_echo(h, &self.windows) {
            self.undecided -= 1;
            self.check_completion(ctx);
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<Carry>) {
        let Some(kind) = self.timers.remove(&timer) else {
            return; // stale timer from a superseded round
        };
        match kind {
            TimerKind::Start | TimerKind::NextPulse => self.start_round(ctx),
            TimerKind::SendOwn { round } => {
                if round != self.round {
                    return;
                }
                let bytes = pulse_sign_bytes_cached(round, self.me);
                let signature = ctx.signer().sign(&bytes);
                ctx.broadcast(Carry {
                    round,
                    dealer: self.me,
                    signature,
                });
            }
            TimerKind::AcceptDeadline { round } => {
                if round != self.round {
                    return;
                }
                for i in 0..self.instances.len() {
                    if self.instances[i].on_accept_deadline() {
                        self.undecided -= 1;
                    }
                }
                self.check_completion(ctx);
            }
            TimerKind::Decide { round, dealer } => {
                if round != self.round {
                    return;
                }
                if self.instances[dealer].on_decide_timer().is_some() {
                    self.undecided -= 1;
                    self.check_completion(ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crusader_sim::metrics::{pulse_stats, PulseStats};
    use crusader_sim::{DelayModel, SilentAdversary, SimBuilder};
    use crusader_time::drift::DriftModel;
    use crusader_time::Time;

    use super::*;
    use crate::bounds;

    fn params(n: usize) -> Params {
        Params::max_resilience(n, Dur::from_millis(1.0), Dur::from_micros(10.0), 1.0001)
    }

    fn run_cps(
        n: usize,
        faulty: Vec<usize>,
        delays: DelayModel,
        drift: DriftModel,
        pulses: u64,
        seed: u64,
    ) -> (crusader_sim::Trace, PulseStats, Derived) {
        let p = params(n);
        let derived = p.derive().unwrap();
        let honest: Vec<NodeId> = NodeId::all(n).filter(|v| !faulty.contains(&v.index())).collect();
        let trace = SimBuilder::new(n)
            .faulty(faulty)
            .link(p.d, p.u)
            .delays(delays)
            .drift(drift, p.theta, derived.s)
            .seed(seed)
            .horizon(Time::from_secs(60.0))
            .max_pulses(pulses)
            .build(
                |me| CpsNode::new(me, p, derived),
                Box::new(SilentAdversary),
            )
            .run();
        let stats = pulse_stats(&trace, &honest);
        (trace, stats, derived)
    }

    #[test]
    fn fault_free_liveness_and_skew() {
        let (trace, stats, derived) =
            run_cps(4, vec![], DelayModel::Random, DriftModel::OffsetsOnly, 10, 1);
        assert_eq!(stats.complete_pulses, 10);
        assert!(trace.violations.is_empty(), "{:?}", trace.violations);
        assert_eq!(bounds::definition3(&stats, &derived), Ok(()));
    }

    #[test]
    fn skew_contracts_from_initial_offset() {
        // Start at nearly full initial offset S; after convergence the
        // skew must be well below S.
        let (_, stats, derived) = run_cps(
            4,
            vec![],
            DelayModel::Random,
            DriftModel::OffsetsOnly,
            12,
            3,
        );
        let early = stats.skews[0];
        let late = stats.skews[stats.skews.len() - 1];
        assert!(
            late < early / 2.0,
            "no contraction: first {early}, last {late} (S = {})",
            derived.s
        );
    }

    #[test]
    fn tolerates_max_silent_faults() {
        // n = 5, f = 2 silent faulty nodes.
        let (trace, stats, derived) = run_cps(
            5,
            vec![3, 4],
            DelayModel::Extremal,
            DriftModel::ExtremalSplit,
            10,
            7,
        );
        assert_eq!(stats.complete_pulses, 10);
        assert_eq!(bounds::definition3(&stats, &derived), Ok(()));
        assert!(trace.violations.is_empty(), "{:?}", trace.violations);
    }

    #[test]
    fn periods_within_theorem_17_bounds() {
        let (_, stats, derived) = run_cps(
            4,
            vec![],
            DelayModel::Extremal,
            DriftModel::ExtremalSplit,
            8,
            11,
        );
        assert_eq!(stats.complete_pulses, 8);
        assert_eq!(bounds::definition3(&stats, &derived), Ok(()));
    }

    #[test]
    fn worst_case_drift_and_delays_stay_within_s() {
        let (_, stats, derived) = run_cps(
            8,
            vec![5, 6, 7],
            DelayModel::Tilted,
            DriftModel::ExtremalSplit,
            12,
            13,
        );
        assert_eq!(stats.complete_pulses, 12);
        assert_eq!(bounds::definition3(&stats, &derived), Ok(()));
    }

    #[test]
    fn node_accessors() {
        let p = params(4);
        let node = CpsNode::from_params(NodeId::new(0), &p).unwrap();
        assert_eq!(node.round(), 0);
        assert_eq!(node.derived().s, p.derive().unwrap().s);
    }

    #[test]
    fn infeasible_params_propagate() {
        let p = Params {
            theta: 1.5,
            ..params(4)
        };
        assert!(CpsNode::from_params(NodeId::new(0), &p).is_err());
    }
}
