//! A1 — ablation: what does TCB's echo-rejection rule actually buy?
//!
//! With the rule on (Figure 2 as published), a staggered Byzantine dealer
//! either stays within the Lemma 11 consistency window or gets ⊥'d. With
//! the rule off, the same dealer splits honest offset estimates by the
//! full stagger, and the midpoint step dutifully chases it: the skew
//! escapes the Theorem 17 bound.

use crate::cli::{Failure, SimArgs};
use crate::Scenario;
use crusader_core::adversary::StaggeredDealer;
use crusader_core::{CpsNode, TcbWindows};
use crusader_sim::DelayModel;
use crusader_time::drift::DriftModel;
use crusader_time::Dur;

fn measure(n: usize, lanes: usize, reject: bool, stagger_us: f64) -> (f64, f64, usize) {
    // At the default n = 5, f = ⌈n/2⌉ − 1 = 2 = ⌈5/3⌉: beyond the
    // signature-free bound, where the discard rule alone can no longer
    // absorb timing equivocation — this is exactly the regime the
    // echo-rejection rule exists for. (At f < n/3 the ablated protocol
    // degrades gracefully into Lynch–Welch and the discard rule hides
    // the difference.)
    let f = crusader_core::max_faults_with_signatures(n);
    let mut s = Scenario::new(n, Dur::from_millis(1.0), Dur::from_micros(20.0), 1.003);
    s.faulty = (n - f..n).collect();
    s.lanes = lanes;
    s.delays = DelayModel::Random;
    s.drift = DriftModel::ExtremalSplit;
    s.pulses = 80;
    let params = s.params();
    let derived = params.derive().unwrap();
    let mut windows = TcbWindows::from_params(&params, &derived);
    if !reject {
        windows = windows.without_echo_rejection();
    }
    let m = s.run_protocol(
        derived.s,
        |me| CpsNode::with_windows(me, params, derived, windows),
        Box::new(StaggeredDealer::anticipating(
            Dur::from_micros(stagger_us),
            &params,
            &derived,
        )),
    );
    // Steady-state: the interesting quantity (pulse 1 always starts at
    // the full initial offset spread ≈ S).
    (
        m.steady_skew.as_micros(),
        derived.s.as_micros(),
        m.violations,
    )
}

/// Runs the experiment (module docs): `Err` for input it cannot run
/// with, a panic for a violated shape assertion.
pub fn run(args: &SimArgs) -> Result<(), Failure> {
    let n = args.resolve_n(5, Dur::from_millis(1.0), Dur::from_micros(20.0), 1.003)?;
    let f = crusader_core::max_faults_with_signatures(n);
    println!("# A1: ablating TCB's echo rejection (n = {n}, f = {f}, staggered dealers)\n");
    println!("| stagger (µs) | rejection | steady skew (µs) | S bound (µs) | within S |");
    println!("|--------------|-----------|------------------|--------------|----------|");
    for stagger in [50.0, 150.0, 250.0, 350.0, 450.0] {
        for reject in [true, false] {
            let (skew, s, _viol) = measure(n, args.lanes(), reject, stagger);
            println!(
                "| {:>12.0} | {:>9} | {:>13.3} | {:>12.3} | {:>8} |",
                stagger,
                if reject { "on" } else { "OFF" },
                skew,
                s,
                skew <= s,
            );
        }
    }
    println!("\nShape check: with rejection on, every row stays within S. With it");
    println!("off, once the stagger exceeds the error budget δ (~50 µs here) the");
    println!("dealers drag the two honest groups apart and the skew escapes the");
    println!("Theorem 17 bound — until the stagger grows so large the late copy");
    println!("falls outside the acceptance window entirely and the attack");
    println!("self-neutralizes. Echo rejection closes exactly that gap.");
    Ok(())
}
