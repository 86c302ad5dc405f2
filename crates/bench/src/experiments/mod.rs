//! The `experiments` binary: every experiment as a subcommand, one table
//! that knows which experiment takes which flag.
//!
//! ```text
//! experiments <name> [flags]        # one experiment, e.g. e1_skew_vs_u
//! experiments all [flags]           # all of them, one consolidated report
//! experiments counts [--check PATH] # the deterministic count ledger
//! ```
//!
//! Each experiment asserts its own invariants, so a clean exit is itself
//! a reproduction result. Flags are parsed and checked against
//! [`EXPERIMENTS`] once, up front ([`crate::cli`] documents them): a
//! single subcommand given a flag it does not take exits 2 naming both;
//! `all` forwards each flag to exactly the rows that take it — the
//! Theorem 5 tri-execution (`e7`) is fixed at n = 3, only `e10` and
//! `e11` run the wall-clock runtime, only `e11` replays `.chaos` files — and runs the rest at their defaults rather
//! than failing the whole report. `all` runs the rows in-process; an
//! experiment that returns a [`Failure`] or panics counts as failed and
//! the report goes on.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::cli::{Failure, SimArgs};
use crate::snapshot;

pub mod a1_ablation_no_reject;
pub mod a2_ablation_midpoint;
pub mod e10_runtime_scale;
pub mod e11_chaos;
pub mod e1_skew_vs_u;
pub mod e2_skew_vs_theta;
pub mod e3_resilience;
pub mod e4_periods;
pub mod e5_apa;
pub mod e6_tcb;
pub mod e7_lower_bound;
pub mod e8_baselines;
pub mod e9_rushing;

/// One experiment plus which shared flags it can honour.
pub struct Experiment {
    /// Subcommand name.
    pub name: &'static str,
    /// The experiment body.
    pub run: fn(&SimArgs) -> Result<(), Failure>,
    /// Takes `--n` (the experiment itself validates the value against
    /// its link parameters).
    pub takes_n: bool,
    /// Takes `--workers`.
    pub takes_workers: bool,
    /// Takes `--scenario`, `--catalog` and `--runtime`.
    pub takes_scenario: bool,
}

const fn exp(
    name: &'static str,
    run: fn(&SimArgs) -> Result<(), Failure>,
    takes_n: bool,
    takes_workers: bool,
    takes_scenario: bool,
) -> Experiment {
    Experiment {
        name,
        run,
        takes_n,
        takes_workers,
        takes_scenario,
    }
}

/// Every experiment, in report order.
pub const EXPERIMENTS: [Experiment; 13] = [
    exp("e1_skew_vs_u", e1_skew_vs_u::run, true, false, false),
    exp("e2_skew_vs_theta", e2_skew_vs_theta::run, true, false, false),
    exp("e3_resilience", e3_resilience::run, true, false, false),
    exp("e4_periods", e4_periods::run, true, false, false),
    exp("e5_apa", e5_apa::run, true, false, false),
    exp("e6_tcb", e6_tcb::run, true, false, false),
    exp("e7_lower_bound", e7_lower_bound::run, false, false, false),
    exp("e8_baselines", e8_baselines::run, true, false, false),
    exp("e9_rushing", e9_rushing::run, true, false, false),
    exp("e10_runtime_scale", e10_runtime_scale::run, true, true, false),
    exp("e11_chaos", e11_chaos::run, true, true, true),
    exp("a1_ablation_no_reject", a1_ablation_no_reject::run, true, false, false),
    exp("a2_ablation_midpoint", a2_ablation_midpoint::run, true, false, false),
];

impl Experiment {
    /// Splits `args` into the flags this experiment takes and, for each
    /// flag it was given but does not take, the flag's name and what
    /// `all` does instead. `--n` on a fixed-`n` experiment is dropped
    /// here only for `all`; run alone, the experiment answers for it
    /// ([`SimArgs::require_n`]).
    fn split(&self, args: &SimArgs) -> (SimArgs, Vec<(&'static str, &'static str)>) {
        type Clear = fn(&mut SimArgs) -> bool;
        let rules: [(&str, bool, &str, Clear); 5] = [
            ("--n", self.takes_n, "running at its default", |a| a.n.take().is_some()),
            ("--runtime", self.takes_scenario, "chaos replay is e11_chaos", |a| std::mem::take(&mut a.runtime)),
            ("--scenario", self.takes_scenario, "chaos replay is e11_chaos", |a| a.scenario.take().is_some()),
            ("--catalog", self.takes_scenario, "chaos replay is e11_chaos", |a| a.catalog.take().is_some()),
            ("--workers", self.takes_workers, "simulator experiment", |a| a.workers.take().is_some()),
        ];
        let mut taken = args.clone();
        let mut dropped = Vec::new();
        for (flag, takes, instead, clear) in rules {
            if !takes && clear(&mut taken) {
                dropped.push((flag, instead));
            }
        }
        (taken, dropped)
    }

    /// The generic flag check for a single subcommand.
    fn check(&self, args: &SimArgs) -> Result<(), Failure> {
        let (_, dropped) = self.split(args);
        match dropped.iter().find(|(flag, _)| *flag != "--n") {
            Some((flag, _)) => Err(Failure::usage(format!(
                "{flag} is not supported by {}",
                self.name
            ))),
            None => Ok(()),
        }
    }
}

/// `experiments all`: every row of [`EXPERIMENTS`] in-process, each with
/// the flags it takes.
fn run_all(args: &SimArgs) -> Result<(), Failure> {
    let mut failures = 0;
    for e in &EXPERIMENTS {
        println!("\n{}\n", "=".repeat(78));
        let (taken, dropped) = e.split(args);
        for (flag, instead) in dropped {
            println!("({}: {flag} not supported, {instead})", e.name);
        }
        match catch_unwind(AssertUnwindSafe(|| (e.run)(&taken))) {
            Ok(Ok(())) => {}
            Ok(Err(failure)) => {
                eprintln!("{}", failure.message);
                eprintln!("!! experiment {} failed: exit code {}", e.name, failure.code);
                failures += 1;
            }
            Err(_) => {
                eprintln!("!! experiment {} failed: panicked", e.name);
                failures += 1;
            }
        }
    }
    println!("\n{}\n", "=".repeat(78));
    if failures > 0 {
        return Err(Failure::drift(format!("{failures} experiment(s) failed")));
    }
    println!(
        "all {} experiments reproduced their expected shapes ✓",
        EXPERIMENTS.len()
    );
    Ok(())
}

/// `experiments counts [--check PATH]`.
fn run_counts(args: &SimArgs) -> Result<(), Failure> {
    match &args.check {
        None => print!("{}", snapshot::counts()),
        Some(path) => {
            snapshot::check(path)?;
            println!("OK: {} is byte-identical to this engine's counts", path.display());
        }
    }
    Ok(())
}

const USAGE: &str = "usage: experiments <name>|all|counts [--n N] [--runtime] \
                     [--workers W] [--scenario FILE] [--catalog DIR] [--check PATH]";

/// Parses `argv` (the process name already stripped), checks the flags
/// against the subcommand, and runs it.
///
/// # Errors
///
/// Returns the [`Failure`] `main` turns into stderr text and an exit
/// code; flag and subcommand errors (code 2) are found before anything
/// runs.
pub fn dispatch(argv: impl IntoIterator<Item = String>) -> Result<(), Failure> {
    let mut argv = argv.into_iter();
    let usage = |e: String| Failure::usage(format!("{e}\n{USAGE}"));
    let name = argv.next().ok_or_else(|| usage("missing subcommand".to_owned()))?;
    let args = SimArgs::parse_from(argv).map_err(usage)?;
    if name == "counts" {
        let only_check = SimArgs {
            check: args.check.clone(),
            ..SimArgs::default()
        };
        if args != only_check {
            return Err(Failure::usage("counts takes no flag but --check"));
        }
        return run_counts(&args);
    }
    if args.check.is_some() {
        return Err(Failure::usage(format!(
            "--check is not supported by {name}: the count ledger is `experiments counts`"
        )));
    }
    if name == "all" {
        return run_all(&args);
    }
    let e = EXPERIMENTS.iter().find(|e| e.name == name).ok_or_else(|| {
        let names = EXPERIMENTS.map(|e| e.name).join(", ");
        usage(format!("unknown subcommand {name:?} (want all, counts, {names})"))
    })?;
    e.check(&args)?;
    (e.run)(&args)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The five shared flags, each as the only flag given.
    fn each_flag() -> [(&'static str, SimArgs); 5] {
        let d = SimArgs::default;
        [
            ("--n", SimArgs { n: Some(16), ..d() }),
            ("--runtime", SimArgs { runtime: true, ..d() }),
            ("--workers", SimArgs { workers: Some(2), ..d() }),
            ("--scenario", SimArgs { scenario: Some("x.chaos".into()), ..d() }),
            ("--catalog", SimArgs { catalog: Some("dir".into()), ..d() }),
        ]
    }

    fn takes(e: &Experiment, flag: &str) -> bool {
        match flag {
            "--n" => e.takes_n,
            "--workers" => e.takes_workers,
            _ => e.takes_scenario,
        }
    }

    #[test]
    fn every_flag_is_honoured_or_rejected_by_name() {
        for e in &EXPERIMENTS {
            for (flag, args) in each_flag() {
                // Run alone: a flag the row does not take is refused up
                // front — `--n` by the fixed-n experiment itself.
                let refusal = match (takes(e, flag), flag) {
                    (true, _) => {
                        assert_eq!(e.check(&args), Ok(()), "{} {flag}", e.name);
                        continue;
                    }
                    (false, "--n") => (e.run)(&args).expect_err("fixed n"),
                    (false, _) => e.check(&args).expect_err("not taken"),
                };
                assert_eq!(refusal.code, 2, "{} {flag}", e.name);
                assert!(
                    refusal.message.contains(flag) && refusal.message.contains(e.name),
                    "{} {flag}: {}",
                    e.name,
                    refusal.message
                );
            }
        }
    }

    #[test]
    fn all_forwards_each_flag_to_exactly_the_rows_that_take_it() {
        let replays_on_runtime = EXPERIMENTS.iter().filter(|e| takes(e, "--runtime"));
        assert!(replays_on_runtime.map(|e| e.name).eq(["e11_chaos"]));
        for e in &EXPERIMENTS {
            for (flag, args) in each_flag() {
                let (taken, dropped) = e.split(&args);
                if takes(e, flag) {
                    assert_eq!(taken, args, "{} must get {flag}", e.name);
                    assert!(dropped.is_empty());
                } else {
                    assert_eq!(taken, SimArgs::default(), "{} must not get {flag}", e.name);
                    assert_eq!(dropped.len(), 1);
                    assert_eq!(dropped[0].0, flag);
                }
            }
        }
    }

    #[test]
    fn subcommand_and_flag_errors_exit_2_before_anything_runs() {
        let run = |words: &[&str]| dispatch(words.iter().map(ToString::to_string));
        for (words, needle) in [
            (&[][..], "missing subcommand"),
            (&["e12_nope"], "e12_nope"),
            (&["e1_skew_vs_u", "--reps", "3"], "--reps"),
            (&["e1_skew_vs_u", "--check", "BENCH_cps.json"], "--check"),
            (&["all", "--check", "BENCH_cps.json"], "--check"),
            (&["counts", "--n", "4"], "--check"),
            (&["e5_apa", "--workers", "2"], "e5_apa"),
            (&["e11_chaos", "--workers", "2"], "--workers needs --runtime"),
            (&["e10_runtime_scale", "--runtime"], "e10_runtime_scale"),
        ] {
            let err = run(words).expect_err("must be refused");
            assert_eq!(err.code, 2, "{words:?}");
            assert!(err.message.contains(needle), "{words:?}: {}", err.message);
        }
    }
}
