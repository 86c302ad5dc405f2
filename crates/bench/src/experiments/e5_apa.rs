//! E5 — Theorem 9 / Corollary 2: approximate agreement halves the range
//! per 2-round iteration, at resilience ⌈n/2⌉−1, for any ℓ/ε.
//!
//! Takes `--n N` (default 7) for the convergence sweep: `f = ⌈n/2⌉ − 1`
//! equivocating dealers against `n − f` honest nodes. Runs on the
//! synchronous round executor, so `--lanes` is rejected.

use crate::cli::{Failure, SimArgs};
use crusader_core::cb::{cb_sign_bytes, SignedValue};
use crusader_core::{iterations_for, ApaMsg, ApaNode};
use crusader_crypto::{KeyRing, NodeId};
use crusader_sim::synchronous::{run_rounds, RushingAdversary, SilentRushing};

struct SplitDealers {
    ring: KeyRing,
    faulty: Vec<NodeId>,
    n: usize,
}

impl RushingAdversary<ApaMsg> for SplitDealers {
    fn round(
        &mut self,
        round: usize,
        _honest: &[(NodeId, NodeId, ApaMsg)],
    ) -> Vec<(NodeId, NodeId, ApaMsg)> {
        if round % 2 != 0 {
            return Vec::new();
        }
        let iteration = round / 2;
        let adv = self
            .ring
            .restricted_signer(self.faulty.iter().copied().collect());
        let mut out = Vec::new();
        for z in &self.faulty {
            for to in NodeId::all(self.n) {
                let value = if to.index() % 2 == 0 { -1e9 } else { 1e9 };
                let sig = adv.sign_as(
                    *z,
                    &cb_sign_bytes(ApaNode::session(iteration, *z), *z, &value),
                );
                out.push((
                    *z,
                    to,
                    ApaMsg::Deal(SignedValue {
                        value,
                        signature: sig,
                    }),
                ));
            }
        }
        out
    }
}

fn spread(outs: &[Option<f64>]) -> f64 {
    let vals: Vec<f64> = outs.iter().filter_map(|o| *o).collect();
    vals.iter().cloned().fold(f64::MIN, f64::max) - vals.iter().cloned().fold(f64::MAX, f64::min)
}

/// Runs the experiment (module docs): `Err` for input it cannot run
/// with, a panic for a violated shape assertion.
pub fn run(args: &SimArgs) -> Result<(), Failure> {
    let n = args.resolve_n_structural(7)?;
    let f = crusader_core::max_faults_with_signatures(n);
    let honest = n - f;
    println!("# E5: approximate agreement (Theorem 9 / Corollary 2)\n");
    println!("## Convergence per iteration (n = {n}, f = {f}, equivocating dealers)\n");
    println!("| iterations | rounds | final spread | ℓ/2^k bound |");
    println!("|------------|--------|--------------|-------------|");
    let ell = 8.0;
    for iters in 1..=8usize {
        let ring = KeyRing::symbolic(n, 5);
        // Honest inputs span [0, ℓ] exactly (the faulty tail's inputs are
        // never read).
        let spread_div = honest.saturating_sub(1).max(1) as f64;
        let inputs: Vec<f64> = (0..n).map(|i| (i as f64) * ell / spread_div).collect();
        let nodes: Vec<Option<ApaNode>> = (0..n)
            .map(|i| {
                (i < honest).then(|| {
                    let me = NodeId::new(i);
                    ApaNode::new(me, n, f, iters, inputs[i], ring.signer(me), ring.verifier())
                })
            })
            .collect();
        let mut adv = SplitDealers {
            ring: ring.clone(),
            faulty: (honest..n).map(NodeId::new).collect(),
            n,
        };
        let run = run_rounds(nodes, &mut adv, 2 * iters);
        let bound = ell / 2f64.powi(iters as i32);
        let s = spread(&run.outputs);
        println!(
            "| {iters:>10} | {:>6} | {s:>12.6} | {bound:>11.6} |",
            run.rounds_used
        );
        assert!(s <= bound + 1e-9, "consistency violated at {iters} iterations");
    }

    println!("\n## Round budget to reach ε (Corollary 2: 2⌈log₂(ℓ/ε)⌉)\n");
    println!("| ℓ/ε | rounds (formula) | measured spread ≤ ε |");
    println!("|-----|------------------|----------------------|");
    for ratio in [2.0, 16.0, 1024.0, 1048576.0] {
        let iters = iterations_for(ratio, 1.0);
        let ring = KeyRing::symbolic(5, 9);
        let nodes: Vec<Option<ApaNode>> = (0..5)
            .map(|i| {
                let me = NodeId::new(i);
                Some(ApaNode::new(
                    me,
                    5,
                    2,
                    iters,
                    (i as f64) * ratio / 4.0,
                    ring.signer(me),
                    ring.verifier(),
                ))
            })
            .collect();
        let run = run_rounds(nodes, &mut SilentRushing, 2 * iters);
        let s = spread(&run.outputs);
        println!("| {ratio:>7.0} | {:>16} | {} (spread {s:.4}) |", 2 * iters, s <= 1.0 + 1e-9);
        assert!(s <= 1.0 + 1e-9);
    }
    println!("\nShape check: spread halves per iteration even with ⌈n/2⌉−1");
    println!("equivocating dealers — impossible without signatures at this f.");
    Ok(())
}
