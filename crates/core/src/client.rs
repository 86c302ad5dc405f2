//! One-to-many pulse distribution: a CPS *core* serves pulses to a large
//! population of listen-only *clients*.
//!
//! CPS's echo-broadcast relay costs `Θ(h²·n)` messages per round (every
//! honest node forwards every honest dealer's direct message to everyone
//! — Figure 2's second step), which is the right price for optimal skew
//! among full participants but makes "thousands of nodes" physically
//! impossible as a full mesh: at `n = 2048` that is ~2 × 10⁹ deliveries
//! *per pulse*. SecureTime-style deployments (see `PAPERS.md`) solve
//! this with one-to-many distribution: a small core synchronizes
//! optimally among itself, and clients follow the core's signed pulses
//! without sending anything.
//!
//! [`PulseClient`] is that client: it pulses round `r` upon holding
//! `f + 1` *distinct* core dealers' valid round-`r` signatures — at
//! least one of which is honest, so faulty core members alone can never
//! drag a client's clock. Clients send nothing and arm no timers, so a
//! round costs the system only the core's own traffic plus the core
//! broadcasts that all `n` nodes receive anyway: `Θ(c²·n)` for a core of
//! size `c`, linear in the client population.
//!
//! A client's pulse trails the core's by the dealers' send offset
//! (`θ·S` on the dealer's clock) plus one message delay, so the
//! fleet-wide skew is [`crate::bounds::fleet_skew`], `S(1 + θ²) + d`,
//! rather than `S` — the standard one-to-many trade (the relay hop costs
//! `Θ(d)`, exactly like the pre-existing echo-broadcast baseline the
//! paper compares against).
//!
//! [`FleetNode`] packages "core member or client" as a single
//! [`Automaton`] type so one `make_node` closure can deploy a mixed
//! fleet on the simulator or on the wall-clock runtime.

use std::collections::HashMap;

use crusader_crypto::{FxBuildHasher, NodeId, Signature};
use crusader_sim::{Automaton, Context, TimerId};

use crate::cps::CpsNode;
use crate::messages::Carry;

/// How far past the last pulsed round a client will accumulate
/// signatures. Bounds [`PulseClient`] memory at
/// `O(MAX_PENDING_ROUNDS · core_n)` regardless of what Byzantine core
/// members send.
pub const MAX_PENDING_ROUNDS: u64 = 64;

/// Per-round accumulation state of a client.
#[derive(Debug, Default)]
struct RoundQuorum {
    /// Which core dealers' round signatures have been verified.
    seen: Vec<bool>,
    /// Number of `true`s in `seen`.
    count: usize,
    /// The signature accepted per dealer (repeat copies of the same
    /// signature — the direct message plus up to `n − 1` echoes — skip
    /// re-verification entirely).
    verified: Vec<Option<Signature>>,
}

/// A listen-only node that follows a CPS core's pulses.
///
/// See the [module docs](self) for the deployment model. The client
/// pulses rounds strictly in order (a round reaching quorum early is
/// held until its predecessors have pulsed), so its pulse list stays
/// aligned with the core's for [`Trace`](crusader_sim::Trace) metrics.
///
/// Rounds more than [`MAX_PENDING_ROUNDS`] ahead of the last pulsed
/// round are ignored outright: a Byzantine core dealer can sign valid
/// `Carry` messages for arbitrary future rounds, and without the window
/// each one would allocate a per-round accumulator that can never reach
/// quorum and is never evicted — unbounded memory driven by attacker
/// traffic. An honest core only ever runs a couple of flights ahead of
/// its clients, so the window costs nothing in the fault-free case.
#[derive(Debug)]
pub struct PulseClient {
    /// Core size: only dealers with index `< core_n` are trusted.
    core_n: usize,
    /// Signatures needed per round: `f_core + 1`.
    quorum: usize,
    /// Last round pulsed (0 before the first).
    pulsed: u64,
    /// Rounds accumulating or complete-but-waiting-for-order.
    rounds: HashMap<u64, RoundQuorum, FxBuildHasher>,
    ready: Vec<u64>,
}

impl PulseClient {
    /// A client following a core of `core_n` dealers, `f_core` of which
    /// may be Byzantine (quorum is `f_core + 1`).
    ///
    /// # Panics
    ///
    /// Panics unless `f_core < core_n` and `core_n ≥ 1`.
    #[must_use]
    pub fn new(core_n: usize, f_core: usize) -> Self {
        assert!(core_n >= 1, "need a core");
        assert!(f_core < core_n, "quorum must be reachable");
        PulseClient {
            core_n,
            quorum: f_core + 1,
            pulsed: 0,
            rounds: HashMap::default(),
            ready: Vec::new(),
        }
    }

    /// Rounds pulsed so far.
    #[must_use]
    pub fn rounds_followed(&self) -> u64 {
        self.pulsed
    }

    fn pulse_in_order(&mut self, ctx: &mut dyn Context<Carry>) {
        while self.ready.contains(&(self.pulsed + 1)) {
            self.pulsed += 1;
            ctx.pulse(self.pulsed);
            self.ready.retain(|&r| r > self.pulsed);
            // Anything at or before the pulsed round can no longer
            // matter; drop the accumulators so memory stays O(1).
            self.rounds.retain(|&r, _| r > self.pulsed);
        }
    }
}

impl Automaton for PulseClient {
    type Msg = Carry;

    fn on_init(&mut self, _ctx: &mut dyn Context<Carry>) {}

    fn on_message(&mut self, _from: NodeId, msg: Carry, ctx: &mut dyn Context<Carry>) {
        let dealer = msg.dealer.index();
        if dealer >= self.core_n
            || msg.round <= self.pulsed
            || msg.round > self.pulsed + MAX_PENDING_ROUNDS
        {
            return;
        }
        let core_n = self.core_n;
        let quorum = self.rounds.entry(msg.round).or_insert_with(|| RoundQuorum {
            seen: vec![false; core_n],
            count: 0,
            verified: vec![None; core_n],
        });
        if quorum.seen[dealer] {
            return;
        }
        // Memoized verification, exactly like `CpsNode`: echoes repeat
        // the dealer's signature verbatim, so only the first copy pays
        // the signature check.
        match &quorum.verified[dealer] {
            Some(sig) if *sig == msg.signature => {}
            _ => {
                if !msg.verify(ctx.verifier()) {
                    return;
                }
                quorum.verified[dealer] = Some(msg.signature.clone());
            }
        }
        quorum.seen[dealer] = true;
        quorum.count += 1;
        if quorum.count >= self.quorum {
            self.ready.push(msg.round);
            self.pulse_in_order(ctx);
        }
    }

    fn on_timer(&mut self, _timer: TimerId, _ctx: &mut dyn Context<Carry>) {
        // Clients arm no timers.
    }
}

/// A mixed one-to-many fleet member: core dealer or listen-only client.
///
/// Lets a single `make_node` closure build the whole deployment:
///
/// ```
/// use crusader_core::{FleetNode, Params, PulseClient, CpsNode};
/// use crusader_crypto::NodeId;
/// use crusader_time::Dur;
///
/// let core = 4;
/// let params = Params::max_resilience(
///     core,
///     Dur::from_millis(1.0),
///     Dur::from_micros(10.0),
///     1.0001,
/// );
/// let derived = params.derive()?;
/// let make_node = move |me: NodeId| {
///     if me.index() < core {
///         FleetNode::Core(Box::new(CpsNode::new(me, params, derived)))
///     } else {
///         FleetNode::Client(PulseClient::new(core, params.f))
///     }
/// };
/// # let _ = make_node;
/// # Ok::<(), crusader_core::ParamError>(())
/// ```
#[derive(Debug)]
pub enum FleetNode {
    /// A full CPS participant (boxed: `CpsNode` is much larger than a
    /// client, and a fleet is almost all clients).
    Core(Box<CpsNode>),
    /// A listen-only pulse follower.
    Client(PulseClient),
}

impl Automaton for FleetNode {
    type Msg = Carry;

    fn on_init(&mut self, ctx: &mut dyn Context<Carry>) {
        match self {
            FleetNode::Core(node) => node.on_init(ctx),
            FleetNode::Client(node) => node.on_init(ctx),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Carry, ctx: &mut dyn Context<Carry>) {
        match self {
            FleetNode::Core(node) => node.on_message(from, msg, ctx),
            FleetNode::Client(node) => node.on_message(from, msg, ctx),
        }
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<Carry>) {
        match self {
            FleetNode::Core(node) => node.on_timer(timer, ctx),
            FleetNode::Client(node) => node.on_timer(timer, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use crusader_crypto::NodeId;
    use crusader_sim::metrics::pulse_stats;
    use crusader_sim::{SilentAdversary, SimBuilder};
    use crusader_time::drift::DriftModel;
    use crusader_time::{Dur, Time};

    use super::*;
    use crate::bounds;
    use crate::params::Params;

    fn fleet_params(core: usize) -> Params {
        Params::max_resilience(core, Dur::from_millis(1.0), Dur::from_micros(10.0), 1.0001)
    }

    /// A core of 4 plus 8 clients in the deterministic simulator: every
    /// client follows every core pulse, one message delay behind.
    #[test]
    fn clients_follow_the_core() {
        let core = 4;
        let n = 12;
        let params = fleet_params(core);
        let derived = params.derive().unwrap();
        let trace = SimBuilder::new(n)
            .link(params.d, params.u)
            .drift(DriftModel::RandomStable, params.theta, derived.s)
            .seed(5)
            .horizon(Time::from_secs(60.0))
            .max_pulses(6)
            .build(
                move |me| {
                    if me.index() < core {
                        FleetNode::Core(Box::new(CpsNode::new(me, params, derived)))
                    } else {
                        FleetNode::Client(PulseClient::new(core, params.f))
                    }
                },
                Box::new(SilentAdversary),
            )
            .run();
        let everyone: Vec<NodeId> = NodeId::all(n).collect();
        let stats = pulse_stats(&trace, &everyone);
        assert!(
            stats.complete_pulses >= 5,
            "fleet completed {} pulses: {:?}",
            stats.complete_pulses,
            trace.violations
        );
        assert!(trace.violations.is_empty(), "{:?}", trace.violations);
        let bound = bounds::fleet_skew(&params, &derived);
        assert!(stats.max_skew <= bound, "fleet skew {} > {bound}", stats.max_skew);
    }

    /// A faulty core member staying silent cannot stop clients (quorum
    /// f + 1 is honest-reachable), and f + 1 signatures always include
    /// an honest one.
    #[test]
    fn clients_survive_faulty_core_members() {
        let core = 5;
        let n = 10;
        let params = fleet_params(core);
        let derived = params.derive().unwrap();
        let trace = SimBuilder::new(n)
            .faulty([3, 4]) // f = 2 silent core members
            .link(params.d, params.u)
            .drift(DriftModel::RandomStable, params.theta, derived.s)
            .seed(9)
            .horizon(Time::from_secs(60.0))
            .max_pulses(5)
            .build(
                move |me| {
                    if me.index() < core {
                        FleetNode::Core(Box::new(CpsNode::new(me, params, derived)))
                    } else {
                        FleetNode::Client(PulseClient::new(core, params.f))
                    }
                },
                Box::new(SilentAdversary),
            )
            .run();
        let honest: Vec<NodeId> = (0..n).filter(|&i| i != 3 && i != 4).map(NodeId::new).collect();
        let stats = pulse_stats(&trace, &honest);
        assert!(
            stats.complete_pulses >= 4,
            "{} pulses: {:?}",
            stats.complete_pulses,
            trace.violations
        );
        assert!(trace.violations.is_empty(), "{:?}", trace.violations);
    }

    /// A hand-rolled listen-only context: records pulses, panics if the
    /// client ever tries to send or arm a timer.
    struct Collect {
        pulses: Vec<u64>,
        verifier: std::sync::Arc<dyn crusader_crypto::Verifier>,
    }
    impl Context<Carry> for Collect {
        fn me(&self) -> NodeId {
            NodeId::new(9)
        }
        fn n(&self) -> usize {
            10
        }
        fn local_time(&self) -> crusader_time::LocalTime {
            crusader_time::LocalTime::ZERO
        }
        fn send(&mut self, _to: NodeId, _msg: Carry) {
            panic!("clients never send");
        }
        fn broadcast(&mut self, _msg: Carry) {
            panic!("clients never broadcast");
        }
        fn set_timer_at(&mut self, _at: crusader_time::LocalTime) -> TimerId {
            panic!("clients never arm timers");
        }
        fn cancel_timer(&mut self, _timer: TimerId) {}
        fn pulse(&mut self, index: u64) {
            self.pulses.push(index);
        }
        fn signer(&self) -> &dyn crusader_crypto::Signer {
            unreachable!("clients never sign")
        }
        fn verifier(&self) -> &dyn crusader_crypto::Verifier {
            &*self.verifier
        }
        fn mark_violation(&mut self, _description: String) {}
    }

    /// Below-quorum signature counts never pulse a client, and non-core
    /// dealers are ignored entirely.
    #[test]
    fn no_quorum_no_pulse() {
        let mut client = PulseClient::new(4, 1); // quorum 2
        assert_eq!(client.rounds_followed(), 0);
        let ring = crusader_crypto::KeyRing::symbolic(10, 42);
        let mut ctx = Collect {
            pulses: Vec::new(),
            verifier: ring.verifier(),
        };
        let carry = |dealer: usize, round: u64| {
            let bytes = crate::messages::pulse_sign_bytes(round, NodeId::new(dealer));
            Carry {
                round,
                dealer: NodeId::new(dealer),
                signature: ring.signer(NodeId::new(dealer)).sign(&bytes),
            }
        };
        // Non-core dealer: ignored.
        client.on_message(NodeId::new(5), carry(5, 1), &mut ctx);
        assert!(ctx.pulses.is_empty());
        // One core signature: below quorum.
        client.on_message(NodeId::new(0), carry(0, 1), &mut ctx);
        assert!(ctx.pulses.is_empty());
        // A repeat of the same dealer does not double-count.
        client.on_message(NodeId::new(1), carry(0, 1), &mut ctx);
        assert!(ctx.pulses.is_empty());
        // A second distinct dealer completes the quorum.
        client.on_message(NodeId::new(1), carry(1, 1), &mut ctx);
        assert_eq!(ctx.pulses, vec![1]);
        assert_eq!(client.rounds_followed(), 1);
        // Stale rounds are dropped.
        client.on_message(NodeId::new(2), carry(2, 1), &mut ctx);
        assert_eq!(ctx.pulses, vec![1]);
    }

    /// A Byzantine core dealer spamming valid signatures for far-future
    /// rounds must not grow the client's per-round state: rounds beyond
    /// the pending window are ignored, and rounds inside it stay
    /// bounded.
    #[test]
    fn far_future_rounds_do_not_accumulate() {
        let mut client = PulseClient::new(4, 1);
        let ring = crusader_crypto::KeyRing::symbolic(10, 11);
        let mut ctx = Collect {
            pulses: Vec::new(),
            verifier: ring.verifier(),
        };
        let carry = |dealer: usize, round: u64| {
            let bytes = crate::messages::pulse_sign_bytes(round, NodeId::new(dealer));
            Carry {
                round,
                dealer: NodeId::new(dealer),
                signature: ring.signer(NodeId::new(dealer)).sign(&bytes),
            }
        };
        // A malicious core member floods rounds far past the window.
        for r in 0..1000u64 {
            client.on_message(NodeId::new(0), carry(0, MAX_PENDING_ROUNDS + 2 + r), &mut ctx);
        }
        assert!(ctx.pulses.is_empty());
        assert!(
            client.rounds.is_empty(),
            "far-future rounds allocated {} accumulators",
            client.rounds.len()
        );
        // Rounds inside the window still work normally.
        client.on_message(NodeId::new(0), carry(0, 1), &mut ctx);
        client.on_message(NodeId::new(1), carry(1, 1), &mut ctx);
        assert_eq!(ctx.pulses, vec![1]);
    }

    /// Rounds reaching quorum out of order still pulse in order.
    #[test]
    fn out_of_order_quorum_pulses_in_order() {
        let core = 3;
        let mut client = PulseClient::new(core, 1);
        let ring = crusader_crypto::KeyRing::symbolic(4, 7);
        let mut ctx = Collect {
            pulses: Vec::new(),
            verifier: ring.verifier(),
        };
        let carry = |dealer: usize, round: u64| {
            let bytes = crate::messages::pulse_sign_bytes(round, NodeId::new(dealer));
            Carry {
                round,
                dealer: NodeId::new(dealer),
                signature: ring.signer(NodeId::new(dealer)).sign(&bytes),
            }
        };
        // Round 2 reaches quorum first: held.
        client.on_message(NodeId::new(0), carry(0, 2), &mut ctx);
        client.on_message(NodeId::new(1), carry(1, 2), &mut ctx);
        assert!(ctx.pulses.is_empty());
        // Round 1 completes: both fire, in order.
        client.on_message(NodeId::new(0), carry(0, 1), &mut ctx);
        client.on_message(NodeId::new(2), carry(2, 1), &mut ctx);
        assert_eq!(ctx.pulses, vec![1, 2]);
        assert_eq!(client.rounds_followed(), 2);
    }
}
