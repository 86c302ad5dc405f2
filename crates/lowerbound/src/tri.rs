//! The merged tri-execution engine.
//!
//! Section 4 of the paper constructs, for any pulse-synchronization
//! protocol with `n = 3`, `f = 1`, three executions `Ex⁰, Ex¹, Ex²`
//! (indices mod 3) satisfying property `P`:
//!
//! * in `Exⁱ`, node `i` is faulty;
//! * honest↔honest messages have delay exactly `d`; messages with a
//!   faulty endpoint have delay `d − ũ`;
//! * `Hⁱ_{i+1}(t) = t` and `Hⁱ_{i+2}(t) = θt` until `t* = 2ũ/(3(θ−1))`,
//!   then `t + 2ũ/3`;
//! * node `i` cannot distinguish `Ex^{i+1}` from `Ex^{i+2}`.
//!
//! The key observation that makes the construction *executable* is that
//! indistinguishability means each node has a single well-defined local
//! view shared between the two executions in which it is honest. So
//! instead of simulating three executions and an adversary replaying
//! messages between them, we simulate **three automaton instances — one
//! per node — on their local timelines**, with one delivery rule per
//! ordered pair `(j, k)`: the pair is jointly honest in exactly one
//! execution `e = 3 − j − k`, and a message sent at `j`-local time `h`
//! arrives at `k`-local time `H^e_k((H^e_j)^{-1}(h) + d)`.
//!
//! Every execution is then *read off* the merged run: node `j`'s pulse at
//! local `h` happens at real time `(H^e_j)^{-1}(h)` in each execution `e`
//! where `j` is honest, and the faulty node's messages in `Exᵉ` are
//! exactly node `e`'s sends, re-timed through `Exᵉ`'s clocks. The engine
//! also *checks*, rather than assumes, the two well-formedness conditions
//! of Lemma 18: that every implied faulty send happens at a non-negative
//! time, and that every honest signature it carries was received by the
//! faulty node beforehand (the adversary's knowledge constraint).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

use crusader_crypto::{KeyRing, KnowledgeTracker, NodeId, Signer, Verifier};
use crusader_sim::{Automaton, Context, TimerId};
use crusader_time::{Dur, HardwareClock, LocalTime, Time};

/// Parameters of the construction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TriConfig {
    /// Maximum message delay `d`.
    pub d: Dur,
    /// Faulty-link uncertainty `ũ ∈ (0, d]` — the quantity the skew bound
    /// `2ũ/3` is measured against. Honest links always take exactly `d`
    /// (i.e. `u = 0`: the lower bound needs no honest uncertainty).
    pub u_tilde: Dur,
    /// Clock rate bound `θ > 1` (the construction's fast clocks run at
    /// `θ` until they are `2ũ/3` ahead, then at rate 1).
    pub theta: f64,
    /// Stop after every node has pulsed this many times.
    pub max_pulses: u64,
    /// Local-time horizon backstop.
    pub horizon: Dur,
}

impl TriConfig {
    /// Theorem 5's bound `2ũ/3`: the skew the construction forces, and
    /// the lead the fast clocks hold from the plateau on.
    #[must_use]
    pub fn bound(&self) -> Dur {
        self.u_tilde * (2.0 / 3.0)
    }

    /// The plateau time `t* = 2ũ/(3(θ−1))`: a rate-`θ` clock has gained
    /// the [`bound`](Self::bound) by then and runs at rate 1 after.
    #[must_use]
    pub fn plateau(&self) -> Dur {
        self.bound() / (self.theta - 1.0)
    }

    /// The clock of node `j` in execution `e` (`j ≠ e`): identity for
    /// `j = e + 1`, fast for `j = e + 2`.
    ///
    /// # Panics
    ///
    /// Panics if `j == e` (the faulty node has no honest clock).
    #[must_use]
    pub fn clock_in(&self, e: usize, j: usize) -> HardwareClock {
        assert_ne!(e % 3, j % 3, "node {j} is faulty in Ex{e}");
        if (e + 1) % 3 == j % 3 {
            HardwareClock::perfect()
        } else {
            HardwareClock::builder()
                .piece(self.theta, self.plateau())
                .tail_rate(1.0)
                .build()
                .expect("valid fast clock")
        }
    }
}

/// The outcome of a merged run.
#[derive(Clone, Debug)]
pub struct TriTrace {
    /// Per node, its pulse *local* times.
    pub pulse_locals: [Vec<LocalTime>; 3],
    /// Per execution `e`, per honest node (in order `e+1`, `e+2`), the
    /// pulse *real* times in that execution.
    pub pulses: [[Vec<Time>; 2]; 3],
    /// Well-formedness violations found while auditing the implied faulty
    /// messages (empty = the construction is valid, as Lemma 18 proves).
    pub well_formedness_violations: Vec<String>,
    /// Total messages delivered in the merged system.
    pub messages: u64,
}

#[derive(Debug)]
enum TriEventKind<M> {
    Deliver { from: usize, to: usize, msg: M },
    Timer { node: usize, id: TimerId },
}

#[derive(Debug)]
struct TriEvent<M> {
    /// The *local time of the target node* — a valid causal order for the
    /// merged system (every delivery's key strictly exceeds its send's).
    key: LocalTime,
    seq: u64,
    kind: TriEventKind<M>,
}

impl<M> PartialEq for TriEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
    }
}
impl<M> Eq for TriEvent<M> {}
impl<M> PartialOrd for TriEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for TriEvent<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key).then(self.seq.cmp(&other.seq))
    }
}

struct TriCtx<'a, M> {
    me: NodeId,
    now_local: LocalTime,
    signer: &'a dyn Signer,
    verifier: &'a dyn Verifier,
    next_timer: &'a mut u64,
    sends: Vec<(NodeId, M)>,
    timers: Vec<(TimerId, LocalTime)>,
    cancels: Vec<TimerId>,
    pulses: Vec<u64>,
    violations: Vec<String>,
}

impl<'a, M: Clone> Context<M> for TriCtx<'a, M> {
    fn me(&self) -> NodeId {
        self.me
    }
    fn n(&self) -> usize {
        3
    }
    fn local_time(&self) -> LocalTime {
        self.now_local
    }
    fn send(&mut self, to: NodeId, msg: M) {
        self.sends.push((to, msg));
    }
    fn broadcast(&mut self, msg: M) {
        for to in NodeId::all(3) {
            self.sends.push((to, msg.clone()));
        }
    }
    fn set_timer_at(&mut self, at: LocalTime) -> TimerId {
        let id = TimerId::new(*self.next_timer);
        *self.next_timer += 1;
        self.timers.push((id, at));
        id
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        self.cancels.push(timer);
    }
    fn pulse(&mut self, index: u64) {
        self.pulses.push(index);
    }
    fn signer(&self) -> &dyn Signer {
        self.signer
    }
    fn verifier(&self) -> &dyn Verifier {
        self.verifier
    }
    fn mark_violation(&mut self, description: String) {
        self.violations.push(description);
    }
}

/// The merged tri-execution simulator. See the module docs.
pub struct TriSim<A: Automaton> {
    cfg: TriConfig,
    nodes: [A; 3],
    ring: KeyRing,
    signers: [Arc<dyn Signer>; 3],
    verifier: Arc<dyn Verifier>,
    queue: BinaryHeap<Reverse<TriEvent<A::Msg>>>,
    seq: u64,
    next_timer: u64,
    cancelled: HashSet<TimerId>,
    /// Per execution `e`: the adversary's signature knowledge, timed in
    /// `Exᵉ`'s real time.
    knowledge: [KnowledgeTracker; 3],
    trace: TriTrace,
}

impl<A: Automaton> TriSim<A> {
    /// Builds the merged system; `make_node` constructs the protocol
    /// instance for each of the three nodes.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ũ ≤ d` and `θ > 1`.
    pub fn new(cfg: TriConfig, mut make_node: impl FnMut(NodeId) -> A) -> Self {
        assert!(
            cfg.u_tilde > Dur::ZERO && cfg.u_tilde <= cfg.d,
            "need 0 < u_tilde <= d"
        );
        assert!(cfg.theta > 1.0, "need theta > 1");
        let ring = KeyRing::symbolic(3, 0x10E7);
        let signers = [
            ring.signer(NodeId::new(0)),
            ring.signer(NodeId::new(1)),
            ring.signer(NodeId::new(2)),
        ];
        let verifier = ring.verifier();
        let nodes = [
            make_node(NodeId::new(0)),
            make_node(NodeId::new(1)),
            make_node(NodeId::new(2)),
        ];
        let knowledge = [
            KnowledgeTracker::new([NodeId::new(0)].into_iter().collect()),
            KnowledgeTracker::new([NodeId::new(1)].into_iter().collect()),
            KnowledgeTracker::new([NodeId::new(2)].into_iter().collect()),
        ];
        TriSim {
            cfg,
            nodes,
            ring,
            signers,
            verifier,
            queue: BinaryHeap::new(),
            seq: 0,
            next_timer: 0,
            cancelled: HashSet::new(),
            knowledge,
            trace: TriTrace {
                pulse_locals: [Vec::new(), Vec::new(), Vec::new()],
                pulses: std::array::from_fn(|_| [Vec::new(), Vec::new()]),
                well_formedness_violations: Vec::new(),
                messages: 0,
            },
        }
    }

    /// The PKI in use (all three executions share it).
    #[must_use]
    pub fn ring(&self) -> &KeyRing {
        &self.ring
    }

    fn push(&mut self, key: LocalTime, kind: TriEventKind<A::Msg>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(TriEvent { key, seq, kind }));
    }

    /// The execution in which both `j` and `k` are honest (for `j ≠ k`).
    fn joint_execution(j: usize, k: usize) -> usize {
        3 - j - k
    }

    /// Runs the merged system and reads off the three executions.
    pub fn run(mut self) -> TriTrace {
        // All clocks read 0 at t = 0 (perfect initial synchronization).
        for j in 0..3 {
            self.with_node(j, LocalTime::ZERO, |node, ctx| node.on_init(ctx));
        }
        let horizon = LocalTime::ZERO + self.cfg.horizon;
        while let Some(Reverse(event)) = self.queue.pop() {
            if event.key > horizon {
                break;
            }
            match event.kind {
                TriEventKind::Deliver { from, to, msg } => {
                    self.trace.messages += 1;
                    let at = event.key;
                    self.with_node(to, at, |node, ctx| {
                        node.on_message(NodeId::new(from), msg, ctx);
                    });
                }
                TriEventKind::Timer { node, id } => {
                    if self.cancelled.remove(&id) {
                        continue;
                    }
                    let at = event.key;
                    self.with_node(node, at, |n, ctx| n.on_timer(id, ctx));
                }
            }
            if self
                .trace
                .pulse_locals
                .iter()
                .all(|p| p.len() as u64 >= self.cfg.max_pulses)
            {
                break;
            }
        }
        self.finish()
    }

    fn with_node<F>(&mut self, j: usize, now_local: LocalTime, f: F)
    where
        F: FnOnce(&mut A, &mut dyn Context<A::Msg>),
    {
        let mut ctx = TriCtx {
            me: NodeId::new(j),
            now_local,
            signer: &*self.signers[j],
            verifier: &*self.verifier,
            next_timer: &mut self.next_timer,
            sends: Vec::new(),
            timers: Vec::new(),
            cancels: Vec::new(),
            pulses: Vec::new(),
            violations: Vec::new(),
        };
        f(&mut self.nodes[j], &mut ctx);
        let TriCtx {
            sends,
            timers,
            cancels,
            pulses,
            violations,
            ..
        } = ctx;
        for v in violations {
            self.trace
                .well_formedness_violations
                .push(format!("protocol violation at n{j}: {v}"));
        }
        for id in cancels {
            self.cancelled.insert(id);
        }
        for (id, at) in timers {
            let key = at.max(now_local);
            self.push(key, TriEventKind::Timer { node: j, id });
        }
        for index in pulses {
            let expected = self.trace.pulse_locals[j].len() as u64 + 1;
            if index != expected {
                self.trace
                    .well_formedness_violations
                    .push(format!("n{j}: pulse {index} after {expected} expected"));
            }
            self.trace.pulse_locals[j].push(now_local);
        }
        for (to, msg) in sends {
            self.dispatch_send(j, to.index(), now_local, msg);
        }
    }

    fn dispatch_send(&mut self, j: usize, k: usize, h: LocalTime, msg: A::Msg) {
        if j == k {
            // Self-delivery is node-internal (no network link exists to
            // oneself in the model); it lands a nominal `d` later on the
            // node's own clock, identically in every execution.
            self.push(h + self.cfg.d, TriEventKind::Deliver { from: j, to: k, msg });
            return;
        }
        // 1. The one execution where both endpoints are honest defines
        //    the merged delivery (delay exactly d).
        let e = Self::joint_execution(j, k);
        let sender_clock = self.cfg.clock_in(e, j);
        let receiver_clock = self.cfg.clock_in(e, k);
        let sent_real = sender_clock.when(h);
        let delivered_local = receiver_clock.read(sent_real + self.cfg.d);

        // 2. In Ex^k (k faulty), this same send is an honest-to-faulty
        //    message arriving after d − ũ: it feeds the adversary's
        //    knowledge there.
        let clock_jk = self.cfg.clock_in(k, j);
        let adv_arrival = clock_jk.when(h) + (self.cfg.d - self.cfg.u_tilde);
        self.knowledge[k].learn_all(&msg, adv_arrival);

        // 3. In Ex^j (j faulty), this send is one of the adversary's
        //    messages; audit it now (delivery local time is already
        //    fixed by indistinguishability). The audit carries a
        //    picosecond tolerance: in the exact model the adversary's
        //    tightest sends use a signature at *precisely* the instant it
        //    arrives (the paper's footnote 1 — "receives m′ by time t" —
        //    allows equality; e.g. an echo's implied send works out to
        //    exactly `h_s + d − ũ`, the same as its learning time), and
        //    f64 rounding must not flip that equality into a violation.
        let audit_eps = Dur::from_nanos(0.001);
        let clock_kj = self.cfg.clock_in(j, k);
        let arrival_real_exj = clock_kj.when(delivered_local);
        let send_real_exj = arrival_real_exj - (self.cfg.d - self.cfg.u_tilde);
        if send_real_exj + audit_eps < Time::ZERO {
            self.trace.well_formedness_violations.push(format!(
                "Ex{j}: faulty send n{j}->n{k} at negative time {send_real_exj}"
            ));
        }
        if let Err(err) = self.knowledge[j].authorize(&msg, send_real_exj + audit_eps) {
            self.trace.well_formedness_violations.push(format!(
                "Ex{j}: faulty send n{j}->n{k} at {send_real_exj} uses unlearned signature: {err}"
            ));
        }

        self.push(
            delivered_local,
            TriEventKind::Deliver { from: j, to: k, msg },
        );
    }

    fn finish(mut self) -> TriTrace {
        // Read off each execution's honest pulse real-times.
        for e in 0..3 {
            for (slot, j) in [(0, (e + 1) % 3), (1, (e + 2) % 3)] {
                let clock = self.cfg.clock_in(e, j);
                self.trace.pulses[e][slot] = self.trace.pulse_locals[j]
                    .iter()
                    .map(|&h| clock.when(h))
                    .collect();
            }
        }
        self.trace
    }
}


