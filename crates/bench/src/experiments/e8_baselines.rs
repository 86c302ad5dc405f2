//! E8 — the comparison behind the paper's introduction: skew of CPS vs
//! Lynch–Welch (f < n/3, no signatures), Srikanth–Toueg-style echo sync
//! (f < n/2, skew Θ(d)), and consensus-style chain sync (f < n/2, skew
//! growing in f), all on identical network parameters.
//!
//! `--n N` replaces the default sweep (n ∈ {4, 6, 8, 12, 16}) with the
//! single requested size (validated for Theorem 17 feasibility at the
//! maximum fault budget).

use crusader_baselines::{ChainSyncNode, EchoSyncNode, LwNode, SelectiveEcho};
use crate::cli::{Failure, SimArgs};
use crate::Scenario;
use crusader_core::max_faults_without_signatures;
use crusader_crypto::NodeId;
use crusader_sim::SilentAdversary;
use crusader_time::drift::DriftModel;
use crusader_time::Dur;

/// Runs the experiment (module docs): `Err` for input it cannot run
/// with, a panic for a violated shape assertion.
pub fn run(args: &SimArgs) -> Result<(), Failure> {
    let d = Dur::from_millis(1.0);
    let u = Dur::from_micros(10.0);
    let theta = 1.001;
    let ns: Vec<usize> = match args.n {
        Some(_) => vec![args.resolve_n(4, d, u, theta)?],
        None => vec![4, 6, 8, 12, 16],
    };
    println!("# E8: baseline comparison (d = {d}, u = {u}, θ = {theta})\n");
    println!("steady-state skew in µs; f = max each protocol supports at that n\n");
    println!("| n | f_cps | CPS | Lynch–Welch (f<n/3) | echo sync (attacked) | chain sync |");
    println!("|---|-------|-----|---------------------|----------------------|------------|");
    for n in ns {
        let mut s = Scenario::new(n, d, u, theta);
        s.pulses = 12;
        s.drift = DriftModel::ExtremalSplit;
        let f_cps = s.faulty.len();
        let (cps, _) = s.run_cps(Box::new(SilentAdversary));

        // LW at its own maximum f.
        let f_lw = max_faults_without_signatures(n);
        let mut s_lw = s.clone();
        s_lw.faulty = (n - f_lw..n).collect();
        let params_lw = s_lw.params();
        let derived_lw = params_lw.derive().unwrap();
        let lw = s_lw.run_protocol(
            derived_lw.s,
            |me| LwNode::new(me, params_lw, derived_lw),
            Box::new(SilentAdversary),
        );

        // Echo sync under the selective attack that realizes Θ(d).
        let mut s_echo = s.clone();
        let echo = s_echo.run_protocol(
            Dur::ZERO,
            |me| EchoSyncNode::new(me, n, f_cps, d * 15.0),
            Box::new(SelectiveEcho::new(NodeId::new(0))),
        );
        let _ = &mut s_echo;

        // Chain sync fault-free (relay prefix must be honest), f as param.
        let mut s_chain = s.clone();
        s_chain.faulty = vec![];
        let chain = s_chain.run_protocol(
            Dur::ZERO,
            |me| ChainSyncNode::new(me, n, f_cps, d, theta),
            Box::new(SilentAdversary),
        );

        println!(
            "| {n:>2} | {f_cps} | {:>7.2} | {:>19.2} | {:>20.2} | {:>10.2} |",
            cps.steady_skew.as_micros(),
            lw.steady_skew.as_micros(),
            echo.steady_skew.as_micros(),
            chain.steady_skew.as_micros(),
        );
    }
    println!("\nShape check: CPS ≈ LW skew (both Θ(u + (θ−1)d)) but at double");
    println!("the resilience; echo sync is pinned near d = 1000 µs; chain");
    println!("sync grows with f (and hence with n at proportional resilience).");
    Ok(())
}
