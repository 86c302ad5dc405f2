//! E11 — chaos replay: runs `.chaos` scenarios from the committed
//! catalog (or any file/directory of them) with the continuous
//! invariant checker riding along, and **asserts** every verdict
//! matches the scenario's pinned `expect` line — so a clean exit is
//! itself a reproduction result, which is what the CI chaos-smoke step
//! relies on.
//!
//! Every scenario replays on the deterministic simulator (`--lanes`
//! selects the sharded executor); `--backend` *adds* a wall-clock
//! runtime replay, where the same fault timeline plays out against the
//! host clock and must reach the same verdict. `--n` rescales the
//! scenarios to a larger system (node indices are absolute, so the
//! extra nodes are untouched honest participants).
//!
//! ```text
//! experiments e11_chaos [--scenario FILE | --catalog DIR] [--n N] [--lanes L]
//!                       [--backend threads|reactor] [--workers W]
//! ```

use std::time::Instant;

use crate::cli::{Failure, SimArgs};
use crusader_chaos::{builtin_catalog_dir, run_scenario, Catalog, Executor, Scenario};

/// Runs the experiment (module docs): `Err` for input it cannot run
/// with, a panic for a violated shape assertion.
pub fn run(args: &SimArgs) -> Result<(), Failure> {
    let mut scenarios: Vec<Scenario> = match (&args.scenario, &args.catalog) {
        (Some(_), Some(_)) => {
            return Err(Failure::usage("--scenario and --catalog are mutually exclusive"));
        }
        (Some(file), None) => {
            let text = std::fs::read_to_string(file)
                .map_err(|e| Failure::usage(format!("read {}: {e}", file.display())))?;
            vec![Scenario::parse(&text)
                .map_err(|e| Failure::usage(format!("{}: {e}", file.display())))?]
        }
        (None, dir) => {
            let dir = dir.clone().unwrap_or_else(builtin_catalog_dir);
            Catalog::load(&dir).map_err(Failure::usage)?.scenarios
        }
    };
    if let Some(n) = args.n {
        scenarios = scenarios
            .iter()
            .map(|sc| {
                sc.rescale(n).map_err(|e| {
                    Failure::usage(format!("--n {n} cannot replay {}: {e}", sc.name))
                })
            })
            .collect::<Result<_, _>>()?;
    }
    let mut executors = vec![Executor::Sim {
        lanes: args.lanes(),
        force_parallel: None,
    }];
    if let Some(backend) = args.backend {
        executors.push(Executor::Runtime {
            backend,
            workers: args.workers,
        });
    } else if args.workers.is_some() {
        return Err(Failure::usage("--workers needs --backend"));
    }

    println!(
        "# E11: chaos replay   ({} scenario(s) × {} executor(s))\n",
        scenarios.len(),
        executors.len()
    );
    crate::header(&[
        "scenario",
        "executor",
        "expected",
        "verdict",
        "first violation",
        "events",
        "ns/event",
        "spills",
        "splices",
    ]);
    let mut mismatches = 0;
    let mut degraded = 0;
    for sc in &scenarios {
        for &executor in &executors {
            // Wall-clock replays are at the mercy of host scheduling: a
            // descheduled quantum longer than the protocol's slack loses
            // a round no link bound can absorb. A genuine regression
            // fails every attempt, so runtime verdicts get two fresh
            // attempts before counting as a mismatch; the deterministic
            // simulator is never retried (it would reproduce the same
            // trace bit for bit).
            let attempts = match executor {
                Executor::Sim { .. } => 1,
                Executor::Runtime { .. } => 3,
            };
            let mut started = Instant::now();
            let mut out = run_scenario(sc, executor);
            let mut retries = 0;
            while !out.as_expected(sc) && retries + 1 < attempts {
                retries += 1;
                started = Instant::now();
                out = run_scenario(sc, executor);
            }
            let elapsed = started.elapsed();
            let verdict = if out.verdict.clean() {
                "clean".to_owned()
            } else {
                format!(
                    "{} violation(s), {} tolerated",
                    out.verdict.violations.len(),
                    out.verdict.tolerated
                )
            };
            let first = out
                .verdict
                .first_violation()
                .map_or_else(|| "—".to_owned(), ToString::to_string);
            let expected = match sc.expect {
                crusader_chaos::Expectation::Clean => "clean",
                crusader_chaos::Expectation::Violations => "violations",
            };
            let ok = out.as_expected(sc);
            if !ok {
                mismatches += 1;
            }
            let note = if !ok {
                "  ← MISMATCH".to_owned()
            } else if retries > 0 {
                format!("  (retry {retries})")
            } else {
                String::new()
            };
            // The queue columns are simulator diagnostics: a wall-clock
            // replay has no event queue (and its "ns/event" would be the
            // protocol's pacing, not the executor's cost).
            let queue = match executor {
                Executor::Sim { .. } => {
                    let t = &out.trace;
                    let events = t.events_processed.max(1);
                    #[allow(clippy::cast_precision_loss)]
                    let ns_per_event = elapsed.as_nanos() as f64 / events as f64;
                    // Splices are the one push path that is not O(1); a
                    // share above 1 % means the ladder lost the pop
                    // frontier. A count ratio, so it gates on any host.
                    let over = t.queue_splice_count > t.events_processed / 100;
                    if over {
                        degraded += 1;
                    }
                    format!(
                        "{} | {ns_per_event:.0} | {} | {}{}",
                        t.events_processed,
                        t.queue_spill_count,
                        t.queue_splice_count,
                        if over { "  ← SPLICE SHARE > 1 %" } else { "" },
                    )
                }
                Executor::Runtime { .. } => "— | — | — | —".to_owned(),
            };
            println!(
                "| {} | {executor} | {expected} | {verdict}{note} | {first} | {queue} |",
                sc.name,
            );
        }
    }
    if degraded > 0 {
        return Err(Failure::drift(format!(
            "\n{degraded} replay(s) spliced more than 1 % of their events into the sorted run"
        )));
    }
    if mismatches > 0 {
        return Err(Failure::drift(format!(
            "\n{mismatches} replay(s) diverged from their pinned verdicts"
        )));
    }
    println!(
        "\nall {} scenario(s) reproduced their pinned verdicts on every executor ✓",
        scenarios.len()
    );
    Ok(())
}
