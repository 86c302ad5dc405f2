//! Command-line handling shared by every `experiments` subcommand.
//!
//! One flag set is parsed once, up front; which subcommand honours which
//! flag is decided by one table ([`crate::experiments::EXPERIMENTS`]),
//! not by the experiments themselves:
//!
//! * `--n N` — override the system size. The experiment *validates* that
//!   the paper's maximum fault budget, `f = ⌈n/2⌉ − 1`, is feasible for
//!   Theorem 17 at the requested `n` under its own link/clock parameters
//!   ([`SimArgs::resolve_n`]; [`SimArgs::resolve_n_structural`] where no
//!   such parameters exist) and fails with a clear message instead of
//!   silently clamping anything. The sweeps then provision that maximum
//!   budget — except `e9`, which by design corrupts a single node, and
//!   `e7`, a 3-node construction by definition
//!   ([`SimArgs::require_n`]);
//! * `--lanes L` — run the scenario on the sharded executor
//!   ([`crusader_sim::ShardedSim`]) with `L` event lanes (`1`, the
//!   default, keeps the single-lane reference engine). Traces are
//!   identical either way; only wall-clock changes. Experiments that
//!   never run the event-lane simulator (`e5`, `e6`, `e7`, `e10`, `a2`)
//!   do not take it;
//! * `--backend threads|reactor`, `--workers W` — which wall-clock
//!   runtime executor drives the nodes ([`crusader_runtime::Backend`])
//!   and with how many reactor worker threads (default
//!   `available_parallelism()`); `e10_runtime_scale` and `e11_chaos`
//!   only;
//! * `--scenario FILE`, `--catalog DIR` — replay one `.chaos` scenario
//!   file or a whole directory (defaults to the committed catalog in
//!   `crates/chaos/catalog`); `e11_chaos` only;
//! * `--check PATH` — compare the regenerated count ledger with the
//!   committed file; the `counts` subcommand only.
//!
//! A single subcommand given a flag it does not take fails with exit
//! code 2 and a message naming both; `experiments all` forwards each
//! flag to exactly the experiments that take it.

use std::path::PathBuf;

use crusader_core::{max_faults_with_signatures, Params};
use crusader_runtime::Backend;
use crusader_time::Dur;

/// Why a subcommand did not reproduce: what `main` prints on stderr and
/// the process exit code it turns it into. `experiments all` counts it
/// as that experiment's failure and goes on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Failure {
    /// Process exit code: 2 for a flag or input the subcommand cannot
    /// run with, 1 for a run whose result is not the pinned one.
    pub code: u8,
    /// The full stderr text.
    pub message: String,
}

impl Failure {
    /// A flag or input this subcommand cannot run with (exit code 2).
    #[must_use]
    pub fn usage(message: impl std::fmt::Display) -> Self {
        Failure {
            code: 2,
            message: format!("error: {message}"),
        }
    }

    /// A run whose result is not the pinned one (exit code 1).
    #[must_use]
    pub fn drift(message: impl Into<String>) -> Self {
        Failure {
            code: 1,
            message: message.into(),
        }
    }
}

/// The parsed flags.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimArgs {
    /// `--n`: requested system size (`None` keeps the experiment's
    /// default).
    pub n: Option<usize>,
    /// `--lanes`: requested lane count (`None` keeps single-lane).
    pub lanes: Option<usize>,
    /// `--backend`: which wall-clock runtime executor to use (`None`
    /// keeps the experiment's default).
    pub backend: Option<Backend>,
    /// `--workers`: reactor worker-thread count (`None` means
    /// `available_parallelism()`).
    pub workers: Option<usize>,
    /// `--scenario`: a `.chaos` scenario file to replay.
    pub scenario: Option<PathBuf>,
    /// `--catalog`: a directory of `.chaos` scenarios to replay.
    pub catalog: Option<PathBuf>,
    /// `--check`: the committed count ledger to compare against.
    pub check: Option<PathBuf>,
}

impl SimArgs {
    /// Parses the flags that follow the subcommand name.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown flags or unparsable values.
    pub fn parse_from(it: impl IntoIterator<Item = String>) -> Result<SimArgs, String> {
        let mut args = SimArgs::default();
        let mut it = it.into_iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
            match arg.as_str() {
                "--n" => {
                    args.n = Some(
                        value("--n")?
                            .parse()
                            .map_err(|e| format!("--n: {e}"))?,
                    );
                }
                "--lanes" => {
                    args.lanes = Some(
                        value("--lanes")?
                            .parse()
                            .map_err(|e| format!("--lanes: {e}"))?,
                    );
                }
                "--backend" => {
                    args.backend = Some(value("--backend")?.parse::<Backend>()?);
                }
                "--workers" => {
                    args.workers = Some(
                        value("--workers")?
                            .parse()
                            .map_err(|e| format!("--workers: {e}"))?,
                    );
                }
                "--scenario" => {
                    args.scenario = Some(value("--scenario")?.into());
                }
                "--catalog" => {
                    args.catalog = Some(value("--catalog")?.into());
                }
                "--check" => {
                    args.check = Some(value("--check")?.into());
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if args.lanes == Some(0) {
            return Err("--lanes must be at least 1".to_owned());
        }
        if args.workers == Some(0) {
            return Err("--workers must be at least 1".to_owned());
        }
        Ok(args)
    }

    /// Resolves the system size against the experiment's default and
    /// validates that maximum resilience (`f = ⌈n/2⌉ − 1`) is feasible
    /// under the given link/clock parameters — nothing is silently
    /// clamped.
    ///
    /// # Errors
    ///
    /// Returns a usage [`Failure`] naming the infeasible parameters.
    pub fn resolve_n(&self, default_n: usize, d: Dur, u: Dur, theta: f64) -> Result<usize, Failure> {
        let n = self.n.unwrap_or(default_n);
        let f = max_faults_with_signatures(n);
        let params = Params { n, f, d, u, theta };
        match params.derive() {
            Ok(_) => Ok(n),
            Err(e) => Err(Failure::usage(format!(
                "n={n} implies f=⌈n/2⌉−1={f}, which is infeasible for \
                 Theorem 17 under d={d}, u={u}, θ={theta}: {e}"
            ))),
        }
    }

    /// The lane count to run with (1 = single-lane reference engine).
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes.unwrap_or(1)
    }

    /// Resolves `--n` against the *structural* maximum-resilience check
    /// only: `f = ⌈n/2⌉ − 1 ≥ 1`, i.e. `n ≥ 3`, so the adversarial
    /// construction has at least one faulty node to work with. For
    /// experiments with no link/clock parameters (the synchronous APA
    /// executor, the vector-sampling ablation) where Theorem 17
    /// feasibility is not defined.
    ///
    /// # Errors
    ///
    /// Returns a usage [`Failure`] for `n < 3`.
    pub fn resolve_n_structural(&self, default_n: usize) -> Result<usize, Failure> {
        let n = self.n.unwrap_or(default_n);
        if max_faults_with_signatures(n) == 0 {
            return Err(Failure::usage(format!(
                "n={n} implies f=⌈n/2⌉−1=0 — this experiment's adversarial \
                 construction needs at least one faulty node; use n ≥ 3"
            )));
        }
        Ok(n)
    }

    /// For experiments whose construction fixes `n` (the Theorem 5
    /// tri-execution): accept `--n required`, reject anything else with
    /// the experiment's `name` and `why` in the diagnostic.
    ///
    /// # Errors
    ///
    /// Returns a usage [`Failure`] for any other `--n`.
    pub fn require_n(&self, required: usize, name: &str, why: &str) -> Result<(), Failure> {
        match self.n {
            Some(n) if n != required => Err(Failure::usage(format!(
                "--n {n} is not supported by {name}: {why} (only n = {required})"
            ))),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<SimArgs, String> {
        SimArgs::parse_from(words.iter().map(ToString::to_string))
    }

    #[test]
    fn scenario_and_catalog_flags_parse_as_paths() {
        let args = parse(&[
            "--scenario",
            "catalog/05_partition_heal.chaos",
            "--catalog",
            "catalog",
            "--lanes",
            "4",
        ])
        .expect("parses");
        assert_eq!(
            args.scenario.as_deref(),
            Some(std::path::Path::new("catalog/05_partition_heal.chaos"))
        );
        assert_eq!(args.catalog.as_deref(), Some(std::path::Path::new("catalog")));
        assert_eq!(args.lanes, Some(4));
    }

    #[test]
    fn scenario_flag_requires_a_value() {
        let err = parse(&["--scenario"]).expect_err("must fail");
        assert!(err.contains("--scenario"), "{err}");
    }

    #[test]
    fn unknown_flags_are_still_rejected() {
        for gone in ["--chaos", "--json", "--compare", "--section", "--label", "--reps", "--max-n"] {
            let err = parse(&[gone, "x"]).expect_err("must fail");
            assert!(err.contains(gone), "{err}");
        }
    }
}
