//! A2 — ablation of the selection rule: the paper's
//! discard-(f−b)-then-midpoint versus naive alternatives (mean of all
//! values; midpoint without discarding), on adversarial estimate vectors.
//!
//! Validity is what breaks: the alternatives let f liars drag the output
//! outside the honest range, which in CPS translates to unbounded skew
//! growth (the liars re-lie every round).

use crate::cli::{Failure, SimArgs};
use crusader_core::midpoint::{midpoint, select_interval};
use crusader_time::Dur;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn mean(values: &[Dur]) -> Dur {
    values.iter().copied().sum::<Dur>() / values.len() as f64
}

fn naive_midpoint(values: &[Dur]) -> Dur {
    let lo = values.iter().copied().min().unwrap();
    let hi = values.iter().copied().max().unwrap();
    (lo + hi) / 2.0
}

/// Runs the experiment (module docs): `Err` for input it cannot run
/// with, a panic for a violated shape assertion.
pub fn run(args: &SimArgs) -> Result<(), Failure> {
    let n = args.resolve_n_structural(9)?;
    let f = crusader_core::max_faults_with_signatures(n);
    println!("# A2: selection-rule ablation (n = {n}, f = {f}, 10000 adversarial vectors)\n");
    let mut rng = SmallRng::seed_from_u64(42);
    let trials = 10_000;
    let honest = n - f;

    let mut out_of_range = [0u64; 3]; // paper rule, naive midpoint, mean
    let mut worst_excursion = [0.0f64; 3];
    for _ in 0..trials {
        // Honest estimates within ±50 µs; liars anywhere within ±10 ms
        // (the acceptance window scale).
        let mut values: Vec<Dur> = (0..honest)
            .map(|_| Dur::from_micros(rng.gen_range(-50.0..50.0)))
            .collect();
        let h_lo = values.iter().copied().min().unwrap();
        let h_hi = values.iter().copied().max().unwrap();
        for _ in 0..f {
            values.push(Dur::from_micros(rng.gen_range(-10_000.0..10_000.0)));
        }
        let candidates = [
            midpoint(&values, f, 0).unwrap(),
            naive_midpoint(&values),
            mean(&values),
        ];
        for (i, c) in candidates.iter().enumerate() {
            if *c < h_lo || *c > h_hi {
                out_of_range[i] += 1;
                let excursion = (*c - h_hi).as_micros().max((h_lo - *c).as_micros());
                worst_excursion[i] = worst_excursion[i].max(excursion);
            }
        }
    }
    println!("| rule | validity violations | worst excursion (µs) |");
    println!("|------|---------------------|----------------------|");
    for (name, i) in [("discard f−b + midpoint (paper)", 0), ("midpoint, no discard", 1), ("mean", 2)] {
        println!(
            "| {name} | {:>6} / {trials} | {:>10.1} |",
            out_of_range[i], worst_excursion[i]
        );
    }
    assert_eq!(out_of_range[0], 0, "the paper's rule must never leave the honest range");

    // And the ⊥-credit: with b ⊥s observed, only f−b need discarding.
    println!("\n⊥-credit check (Lemma 7/8): replacing a ⊥ by any value only shrinks the interval");
    let base: Vec<Dur> = [-30.0, -5.0, 10.0, 40.0].iter().map(|v| Dur::from_micros(*v)).collect();
    let with_bot = select_interval(&base, 2, 1).unwrap();
    for x in [-1e4, -20.0, 0.0, 25.0, 1e4] {
        let mut more = base.clone();
        more.push(Dur::from_micros(x));
        let replaced = select_interval(&more, 2, 0).unwrap();
        assert!(replaced.lo >= with_bot.lo && replaced.hi <= with_bot.hi);
        println!("  ⊥ → {x:>8.0} µs: [{}, {}] ⊆ [{}, {}] ✓",
            replaced.lo, replaced.hi, with_bot.lo, with_bot.hi);
    }
    Ok(())
}
