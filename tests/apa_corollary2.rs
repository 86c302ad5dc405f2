//! Corollary 2 as an integration test: iterated APA reaches
//! `ε`-consistency from range `ℓ` in `2⌈log₂(ℓ/ε)⌉` rounds, with
//! resilience `⌈n/2⌉ − 1` — including under equivocating and extreme-value
//! Byzantine dealers (which, without signatures, would require `n > 3f`).

use crusader::core::cb::{cb_sign_bytes, SignedValue};
use crusader::core::{iterations_for, ApaMsg, ApaNode};
use crusader::crypto::{KeyRing, NodeId};
use crusader::sim::synchronous::{run_rounds, RushingAdversary, SilentRushing};

fn build(
    n: usize,
    f: usize,
    iterations: usize,
    inputs: &[f64],
    faulty: &[usize],
    ring: &KeyRing,
) -> Vec<Option<ApaNode>> {
    (0..n)
        .map(|i| {
            if faulty.contains(&i) {
                None
            } else {
                let me = NodeId::new(i);
                Some(ApaNode::new(
                    me,
                    n,
                    f,
                    iterations,
                    inputs[i],
                    ring.signer(me),
                    ring.verifier(),
                ))
            }
        })
        .collect()
}

fn spread(outs: &[Option<f64>]) -> f64 {
    let vals: Vec<f64> = outs.iter().filter_map(|o| *o).collect();
    let min = vals.iter().cloned().fold(f64::MAX, f64::min);
    let max = vals.iter().cloned().fold(f64::MIN, f64::max);
    max - min
}

/// The strongest value-level adversary available to corrupted dealers:
/// per iteration, each faulty dealer signs *two* different values and
/// sends one to each half of the system (crusader consistency must turn
/// this into ⊥ everywhere), while also echoing honestly to stay
/// plausible.
struct TwoFaced {
    ring: KeyRing,
    faulty: Vec<NodeId>,
    n: usize,
}

impl RushingAdversary<ApaMsg> for TwoFaced {
    fn round(
        &mut self,
        round: usize,
        _honest: &[(NodeId, NodeId, ApaMsg)],
    ) -> Vec<(NodeId, NodeId, ApaMsg)> {
        if !round.is_multiple_of(2) {
            return Vec::new();
        }
        let iteration = round / 2;
        let adv = self
            .ring
            .restricted_signer(self.faulty.iter().copied().collect());
        let mut out = Vec::new();
        for z in &self.faulty {
            for to in NodeId::all(self.n) {
                let value = if to.index() % 2 == 0 { -1e12 } else { 1e12 };
                let sig = adv.sign_as(
                    *z,
                    &cb_sign_bytes(ApaNode::session(iteration, *z), *z, &value),
                );
                out.push((
                    *z,
                    to,
                    ApaMsg::Deal(SignedValue {
                        value,
                        signature: sig.clone(),
                    }),
                ));
            }
        }
        out
    }
}

#[test]
fn corollary_2_round_count_fault_free() {
    // ℓ = 64, ε = 1 → 6 iterations = 12 rounds.
    let ring = KeyRing::symbolic(4, 1);
    let inputs = [0.0, 21.0, 42.0, 64.0];
    let iters = iterations_for(64.0, 1.0);
    assert_eq!(iters, 6);
    let nodes = build(4, 1, iters, &inputs, &[], &ring);
    let run = run_rounds(nodes, &mut SilentRushing, 2 * iters);
    assert_eq!(run.rounds_used, 12);
    assert!(spread(&run.outputs) <= 1.0 + 1e-9);
}

#[test]
fn epsilon_consistency_across_scales() {
    for (ell, eps) in [(10.0, 1.0), (1000.0, 0.5), (3.0, 0.01)] {
        let ring = KeyRing::symbolic(5, 2);
        let inputs = [0.0, ell / 4.0, ell / 2.0, 0.0, ell];
        let iters = iterations_for(ell, eps);
        let nodes = build(5, 2, iters, &inputs, &[], &ring);
        let run = run_rounds(nodes, &mut SilentRushing, 2 * iters + 2);
        assert!(
            spread(&run.outputs) <= eps + 1e-9,
            "ℓ={ell}, ε={eps}: spread {}",
            spread(&run.outputs)
        );
    }
}

#[test]
fn max_resilience_under_two_faced_dealers() {
    // n = 7, f = 3 = ⌈7/2⌉ − 1: double the signature-free limit.
    let ring = KeyRing::symbolic(7, 3);
    let inputs = [5.0, 6.0, 8.0, 9.0, 0.0, 0.0, 0.0];
    let mut adv = TwoFaced {
        ring: ring.clone(),
        faulty: vec![NodeId::new(4), NodeId::new(5), NodeId::new(6)],
        n: 7,
    };
    let iters = 5;
    let nodes = build(7, 3, iters, &inputs, &[4, 5, 6], &ring);
    let run = run_rounds(nodes, &mut adv, 2 * iters);
    // Validity: outputs within honest input range [5, 9].
    for i in 0..4 {
        let v = run.outputs[i].unwrap();
        assert!((5.0..=9.0).contains(&v), "node {i}: {v}");
    }
    // Consistency: halved five times from ℓ = 4.
    assert!(
        spread(&run.outputs) <= 4.0 / 32.0 + 1e-9,
        "spread {}",
        spread(&run.outputs)
    );
}

#[test]
fn larger_systems_converge() {
    for n in [9usize, 15, 21] {
        let f = n.div_ceil(2) - 1;
        let ring = KeyRing::symbolic(n, n as u64);
        let inputs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let faulty: Vec<usize> = (n - f..n).collect();
        let iters = 4;
        let nodes = build(n, f, iters, &inputs, &faulty, &ring);
        let run = run_rounds(nodes, &mut SilentRushing, 2 * iters);
        let honest_max = (n - f - 1) as f64;
        let expect = honest_max / 16.0;
        assert!(
            spread(&run.outputs) <= expect + 1e-9,
            "n={n}: spread {} > {expect}",
            spread(&run.outputs)
        );
        for i in 0..n - f {
            let v = run.outputs[i].unwrap();
            assert!((0.0..=honest_max).contains(&v), "node {i}: {v}");
        }
    }
}
