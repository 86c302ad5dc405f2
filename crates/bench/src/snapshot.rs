//! The committed count ledger (`BENCH_cps.json`) and the scenarios it,
//! the determinism tests and `e10` share.
//!
//! What the repo can *gate* about the simulator is deterministic: event,
//! message, spill and splice counts, and virtual-time resync
//! milliseconds. [`counts`] replays a fixed grid and renders it as the
//! ledger's exact text; the file is never read back into structures, it
//! is compared **byte for byte** ([`check`]):
//!
//! * `cps` — [`cps_scenario`] at n ∈ {4, 8, 16, 64} on the single-lane
//!   engine. At n = 64 the same seed is also run on the sharded executor
//!   with [`CPS_SHARDED_LANES`] lanes, once inline and once with the
//!   persistent worker pool forced on
//!   ([`Scenario::force_parallel`](crate::Scenario)); all three traces
//!   must hash identically or [`counts`] panics — the pool is pure
//!   scheduling, and forcing it makes the gate meaningful on single-CPU
//!   runners where it would otherwise never engage;
//! * `recovery` — a crash-and-rejoin scenario per grid point
//!   (n ∈ {4, 8, 16} × {one crash, the full crash budget}) with the
//!   [`crusader_core::RecoveringNode`] fleet: completed rejoins and
//!   worst/mean time-to-resync against the catch-up bound
//!   [`crusader_core::bounds::rejoin_catch_up`], to the millisecond's
//!   third decimal;
//! * `catalog` — every committed chaos scenario at its native `n`, so a
//!   queue change that moves a spill or splice count is a one-line diff
//!   of a committed file.
//!
//! `experiments counts --check BENCH_cps.json` is the CI gate, and the
//! `committed_counts_are_current` test below makes drift fail `cargo
//! test` too. Re-record with `experiments counts > BENCH_cps.json`.
//! Wall-clock numbers live in `benchmark/`, not here.
//!
//! # Why the large runtime scenarios are one-to-many deployments
//!
//! Full-mesh CPS costs `Θ(h²·n)` deliveries per round (h honest nodes
//! each echo-broadcast every honest dealer's direct message): at
//! n = 2048 with maximum silent faults that is ≈ 2 × 10⁹ deliveries per
//! pulse — physically impossible on any single host, independent of the
//! executor. Past [`RUNTIME_MESH_MAX_N`], [`runtime_scenario`] therefore
//! deploys the SecureTime-style one-to-many fleet
//! ([`crusader_core::FleetNode`]): a core of [`RUNTIME_CORE`] full CPS
//! participants plus listen-only [`crusader_core::PulseClient`]s,
//! costing `Θ(core²·n)` per round — linear in the client population,
//! which is the whole point of that deployment model. Up to n = 64 it
//! stays a full mesh (core = n, max silent faults), the paper's
//! original workload.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use crusader_chaos::{builtin_catalog_dir, run_scenario, Catalog, Executor};
use crusader_core::{bounds, max_faults_with_signatures, CpsNode, FleetNode, Params, PulseClient};
use crusader_crypto::NodeId;
use crusader_runtime::RuntimeConfig;
use crusader_sim::metrics::{pulse_stats, resync_times};
use crusader_sim::{SilentAdversary, Trace};
use crusader_time::Dur;

use crate::cli::Failure;
use crate::{trace_hash, Scenario};

/// System sizes of the ledger's `cps` rows.
pub const CPS_SNAPSHOT_NS: &[usize] = &[4, 8, 16, CPS_SHARDED_N];

/// The `cps` row that is cross-checked on the sharded executor.
pub const CPS_SHARDED_N: usize = 64;

/// Lane count of that cross-check.
pub const CPS_SHARDED_LANES: usize = 8;

/// Pulses per run.
pub const CPS_SNAPSHOT_PULSES: u64 = 8;

/// Core size of the one-to-many fleet deployments
/// (n > [`RUNTIME_MESH_MAX_N`]): a CPS core of this many dealers serves
/// pulses to `n − core` listen-only clients. See the
/// [module docs](self) for why the large deployments cannot be full
/// meshes.
pub const RUNTIME_CORE: usize = 32;

/// Largest runtime deployment run as a full CPS mesh (core = n, max
/// silent faults) rather than a core-plus-clients fleet.
pub const RUNTIME_MESH_MAX_N: usize = 64;

/// Largest fleet deployment on the shorter timescale (d = 250 ms, 8 s);
/// beyond it the per-round volume needs d = 900 ms and 25 s.
pub const RUNTIME_SMALL_FLEET_MAX_N: usize = 512;

/// System sizes of the ledger's `recovery` rows.
pub const RECOVERY_NS: &[usize] = &[4, 8, 16];

/// Schema tag written into the file, bumped on layout changes (v6: the
/// write-only count ledger — `cps`, `recovery`, `catalog`).
pub const SCHEMA: &str = "crusader-bench-cps/v6";

/// One time-to-resync measurement: `crashes` nodes crash mid-run in
/// staggered windows and rejoin through the signed resync handshake, on
/// the deterministic single-lane simulator. Seed-determinism makes every
/// column exact.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryRow {
    /// System size.
    pub n: usize,
    /// Nodes that crash and recover (1, or the full budget `⌈n/2⌉ − 1`).
    pub crashes: usize,
    /// Completed rejoins — recovered nodes that pulsed again.
    pub resyncs: u64,
    /// Worst recovery-to-next-pulse time across the row, in ms.
    pub max_resync_ms: f64,
    /// Mean recovery-to-next-pulse time across the row, in ms.
    pub mean_resync_ms: f64,
    /// The catch-up bound [`crusader_core::bounds::rejoin_catch_up`] in
    /// ms. The row's scenario pins it as its `resync_ms` invariant.
    pub bound_ms: f64,
    /// Violations (protocol or invariant) recorded by the replay.
    pub violations: u64,
}

/// The scenario measured for row `n` — one place, so the ledger and the
/// determinism tests cannot drift apart.
#[must_use]
pub fn cps_scenario(n: usize) -> Scenario {
    let mut s = Scenario::new(n, Dur::from_millis(1.0), Dur::from_micros(10.0), 1.0001);
    s.pulses = CPS_SNAPSHOT_PULSES;
    s
}

/// The executor behind every `recovery` and `catalog` row.
const SINGLE_LANE: Executor = Executor::Sim {
    lanes: 1,
    force_parallel: None,
};

/// The four counts every simulator row of the ledger records.
fn count_columns(trace: &Trace) -> String {
    format!(
        "\"events_processed\": {}, \"messages_delivered\": {}, \
         \"spill_count\": {}, \"splice_count\": {}",
        trace.events_processed,
        trace.messages_delivered,
        trace.queue_spill_count,
        trace.queue_splice_count
    )
}

/// Replays the deterministic grid and returns the ledger's exact text
/// (see the [module docs](self) for the three blocks).
///
/// # Panics
///
/// Panics if the sharded executor (inline or worker pool) disagrees with
/// the single-lane engine at n = [`CPS_SHARDED_N`], if a recovery row
/// loses a rejoin, or if the committed catalog fails to load — the
/// ledger must not record a broken engine.
#[must_use]
pub fn counts() -> String {
    let mut cps = Vec::new();
    for &n in CPS_SNAPSHOT_NS {
        let (single, _) = cps_scenario(n).run_cps_trace(Box::new(SilentAdversary));
        if n == CPS_SHARDED_N {
            for pool in [false, true] {
                let mut sharded = cps_scenario(n);
                sharded.lanes = CPS_SHARDED_LANES;
                sharded.force_parallel = Some(pool);
                let (trace, _) = sharded.run_cps_trace(Box::new(SilentAdversary));
                assert_eq!(
                    trace_hash(&trace),
                    trace_hash(&single),
                    "sharded (pool = {pool}) / single-lane drift at n={n}"
                );
            }
        }
        cps.push(format!("{{\"n\": {n}, {}}}", count_columns(&single)));
    }
    let recovery = RECOVERY_NS.iter().flat_map(|&n| {
        // One crash, and the full budget where that is more than one.
        let f = max_faults_with_signatures(n);
        std::iter::once(1)
            .chain((f > 1).then_some(f))
            .map(move |crashes| {
                let r = measure_recovery_row(n, crashes);
                format!(
                    "{{\"n\": {}, \"crashes\": {}, \"resyncs\": {}, \
                     \"max_resync_ms\": {:.3}, \"mean_resync_ms\": {:.3}, \
                     \"bound_ms\": {:.3}, \"violations\": {}}}",
                    r.n,
                    r.crashes,
                    r.resyncs,
                    r.max_resync_ms,
                    r.mean_resync_ms,
                    r.bound_ms,
                    r.violations
                )
            })
    });
    let catalog = Catalog::load(&builtin_catalog_dir())
        .expect("the committed chaos catalog loads")
        .scenarios;
    let catalog = catalog.iter().map(|sc| {
        let out = run_scenario(sc, SINGLE_LANE);
        format!(
            "{{\"scenario\": {:?}, \"n\": {}, {}}}",
            sc.name,
            sc.n,
            count_columns(&out.trace)
        )
    });
    let mut out = String::new();
    let _ = writeln!(out, "{{\n  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(out, "  \"pulses\": {CPS_SNAPSHOT_PULSES},");
    let _ = writeln!(out, "  \"cps\": [\n    {}\n  ],", cps.join(",\n    "));
    let _ = writeln!(
        out,
        "  \"recovery\": [\n    {}\n  ],",
        recovery.collect::<Vec<_>>().join(",\n    ")
    );
    let _ = writeln!(
        out,
        "  \"catalog\": [\n    {}\n  ]\n}}",
        catalog.collect::<Vec<_>>().join(",\n    ")
    );
    out
}

/// Compares the committed ledger text with a regenerated one, byte for
/// byte.
///
/// # Errors
///
/// Returns a drift [`Failure`] listing every differing line (committed
/// `-`, regenerated `+`, with its line number) and the re-record
/// command.
pub fn check_text(committed: &str, regenerated: &str) -> Result<(), Failure> {
    if committed == regenerated {
        return Ok(());
    }
    let mut message = String::new();
    let (mut old, mut new) = (committed.lines(), regenerated.lines());
    for lineno in 1.. {
        let (a, b) = (old.next(), new.next());
        if a.is_none() && b.is_none() {
            break;
        }
        if a != b {
            if let Some(a) = a {
                let _ = writeln!(message, "line {lineno}: - {a}");
            }
            if let Some(b) = b {
                let _ = writeln!(message, "line {lineno}: + {b}");
            }
        }
    }
    message.push_str(
        "FAIL: the count ledger drifted (-: committed, +: this engine); if the change is \
         intentional, re-record it: experiments counts > BENCH_cps.json",
    );
    Err(Failure::drift(message))
}

/// `experiments counts --check PATH`: regenerates the ledger and
/// compares it with the file at `path`.
///
/// # Errors
///
/// Returns a usage [`Failure`] if the file cannot be read and a drift
/// [`Failure`] naming the differing lines if it is not current.
pub fn check(path: &Path) -> Result<(), Failure> {
    let committed = std::fs::read_to_string(path)
        .map_err(|e| Failure::usage(format!("cannot read {}: {e}", path.display())))?;
    check_text(&committed, &counts())
}

/// The wall-clock deployment at system size `n` — one place, so the
/// `e10_runtime_scale` experiment and the CI smoke steps cannot drift
/// apart. Returns the runtime config (with the worker count left at its
/// default, to be overridden by the caller), the core size, and the
/// core's protocol parameters.
///
/// `d`/`u` scale with `n` so each round's `Θ(core²·n)` delivery volume
/// fits inside a round period even on a small host — the same
/// "host jitter inflates `u`" reality documented by `crusader_runtime`,
/// applied to throughput.
///
/// # Panics
///
/// Panics if `n` has no feasible configuration (not in the supported
/// grid shape).
#[must_use]
pub fn runtime_scenario(n: usize) -> (RuntimeConfig, usize, Params) {
    // Margins must dwarf the host's per-round processing hump: a full
    // mesh round is Θ(h²·n) deliveries arriving within one `u` window,
    // which on a small host is tens of milliseconds of solid CPU —
    // protocol deadlines (`decide_wait = d − 2u`, the post-accept slack
    // `T − accept_window`) have to leave room for it, so the timescales
    // grow with the per-round volume.
    let (core, d_ms, u_ms, run_ms) = if n <= RUNTIME_MESH_MAX_N {
        (n, 120.0, 40.0, 3_500)
    } else if n <= RUNTIME_SMALL_FLEET_MAX_N {
        (RUNTIME_CORE, 250.0, 80.0, 8_000)
    } else {
        (RUNTIME_CORE, 900.0, 300.0, 25_000)
    };
    let d = Dur::from_millis(d_ms);
    let u = Dur::from_millis(u_ms);
    let theta = 1.01;
    let params = Params::max_resilience(core, d, u, theta);
    let derived = params.derive().expect("runtime grid params feasible");
    // Mesh rows crash the maximum fault budget; fleet rows keep every
    // core dealer honest (clients are not counted against f).
    let silent: Vec<usize> = if core == n {
        (n - params.f..n).collect()
    } else {
        Vec::new()
    };
    let cfg = RuntimeConfig {
        silent,
        d,
        u,
        theta,
        max_offset: derived.s,
        run_for: Duration::from_millis(run_ms),
        seed: 0xCAFE ^ (n as u64),
        ..RuntimeConfig::new(n)
    };
    (cfg, core, params)
}

/// Outcome of one wall-clock runtime run.
#[derive(Clone, Debug)]
pub struct RuntimeOutcome {
    /// Pulses completed by every active node.
    pub pulses: u64,
    /// Network deliveries.
    pub messages: u64,
    /// Violations recorded by any node (must be empty for a healthy
    /// deployment; the text says which bound broke and where).
    pub violations: Vec<String>,
    /// Configured run length in seconds.
    pub run_secs: f64,
    /// The runtime's own counts: faults, and the commands and inbox
    /// hand-offs the deliveries took.
    pub supervision: crusader_runtime::SupervisionStats,
}

/// Runs the runtime scenario for size `n` on `workers` reactor workers
/// and summarizes.
#[must_use]
pub fn run_runtime(n: usize, workers: Option<usize>) -> RuntimeOutcome {
    let (mut cfg, core, params) = runtime_scenario(n);
    cfg.workers = workers;
    let derived = params.derive().expect("validated by runtime_scenario");
    let silent = cfg.silent.clone();
    let report = crusader_runtime::run(&cfg, move |me| {
        if me.index() < core {
            FleetNode::Core(Box::new(CpsNode::new(me, params, derived)))
        } else {
            FleetNode::Client(PulseClient::new(core, params.f))
        }
    });
    let active: Vec<NodeId> = (0..n)
        .filter(|i| !silent.contains(i))
        .map(NodeId::new)
        .collect();
    let stats = pulse_stats(&report.trace, &active);
    RuntimeOutcome {
        pulses: stats.complete_pulses as u64,
        messages: report.messages_delivered,
        violations: report.trace.violations,
        run_secs: cfg.run_for.as_secs_f64(),
        supervision: report.supervision,
    }
}

/// The crash-and-rejoin scenario measured for recovery row
/// `(n, crashes)` — one place, so the ledger and the tests cannot drift
/// apart. Crash windows are staggered 40 ms apart so recoveries
/// are distinct events; the documented catch-up bound is pinned as the
/// scenario's own `resync_ms` invariant.
///
/// # Panics
///
/// Panics if the generated scenario text fails to parse — a harness
/// bug, not an input condition.
#[must_use]
pub fn recovery_scenario(n: usize, crashes: usize) -> crusader_chaos::Scenario {
    let d = Dur::from_millis(20.0);
    let u = Dur::from_millis(6.0);
    let theta = 1.01;
    let params = Params::max_resilience(n, d, u, theta);
    let derived = params.derive().expect("recovery grid params feasible");
    let bound = bounds::rejoin_catch_up(&params, &derived);
    let mut text = format!(
        "name recovery_n{n}_c{crashes}\n\
         summary {crashes} staggered crash-and-rejoin cycles at n = {n}\n\
         n {n}\nseed 11\nd_ms 20\nu_ms 6\ntheta 1.01\nrun_for_ms 2000\n"
    );
    for i in 1..=crashes {
        let start = 400 + 40 * (i - 1);
        let _ = writeln!(text, "crash {i} {start} {}", start + 500);
    }
    let _ = writeln!(text, "invariant resync_ms {:.3}", bound.as_millis());
    text.push_str("expect clean\n");
    crusader_chaos::Scenario::parse(&text).expect("generated recovery scenario parses")
}

/// Measures one recovery grid point on the single-lane simulator.
///
/// # Panics
///
/// Panics if a crashed node never completes its rejoin — the committed
/// ledger must not record a broken recovery path.
#[must_use]
pub fn measure_recovery_row(n: usize, crashes: usize) -> RecoveryRow {
    let sc = recovery_scenario(n, crashes);
    let timeline = sc.timeline();
    let out = run_scenario(&sc, SINGLE_LANE);
    let events = resync_times(&out.trace, &timeline);
    let times: Vec<f64> = events
        .iter()
        .map(|e| {
            e.time_to_pulse
                .unwrap_or_else(|| {
                    panic!("recovery row n={n} crashes={crashes}: {} never rejoined", e.node)
                })
                .as_millis()
        })
        .collect();
    assert_eq!(times.len(), crashes, "recovery row n={n} lost a rejoin");
    let max = times.iter().copied().fold(0.0f64, f64::max);
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    RecoveryRow {
        n,
        crashes,
        resyncs: times.len() as u64,
        max_resync_ms: max,
        mean_resync_ms: mean,
        bound_ms: sc.invariants.resync.expect("pinned by recovery_scenario").as_millis(),
        violations: (out.verdict.violations.len() + out.trace.violations.len()) as u64,
    }
}
#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;

    /// One regeneration shared by the tests below.
    fn regenerated() -> &'static str {
        static LEDGER: OnceLock<String> = OnceLock::new();
        LEDGER.get_or_init(counts)
    }

    fn committed() -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_cps.json");
        std::fs::read_to_string(path).expect("BENCH_cps.json is committed at the repo root")
    }

    #[test]
    fn committed_counts_are_current() {
        if let Err(drift) = check_text(&committed(), regenerated()) {
            panic!("{}", drift.message);
        }
    }

    #[test]
    fn measure_is_deterministic_in_counts() {
        assert_eq!(counts(), regenerated());
    }

    #[test]
    fn check_names_the_line_of_a_one_digit_edit() {
        let off = committed().replacen("\"events_processed\": 10845", "\"events_processed\": 10846", 1);
        let drift = check_text(&off, regenerated()).expect_err("a one-digit edit must fail");
        assert_eq!(drift.code, 1);
        let named: Vec<&str> = drift.message.lines().filter(|l| l.starts_with("line ")).collect();
        assert_eq!(named.len(), 2, "{}", drift.message);
        assert!(named[0].contains("- ") && named[0].contains("10846"), "{}", drift.message);
        assert!(named[1].contains("+ ") && named[1].contains("10845"), "{}", drift.message);
    }

    #[test]
    fn check_reports_an_unreadable_file_as_usage() {
        let err = check(Path::new("/nonexistent/BENCH_cps.json")).expect_err("no such file");
        assert_eq!(err.code, 2);
        assert!(err.message.contains("/nonexistent/BENCH_cps.json"), "{}", err.message);
    }
}
