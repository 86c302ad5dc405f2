//! The committed count ledger (`BENCH_cps.json`) and the scenarios it,
//! the determinism tests and `e10` share.
//!
//! What the repo can *gate* about the simulator is deterministic: event,
//! message, spill and splice counts, and virtual-time resync
//! milliseconds. [`counts`] replays a fixed grid and renders it as the
//! ledger's exact text; the file is never read back into structures, it
//! is compared **byte for byte** ([`check`]):
//!
//! * `cps` — [`cps_scenario`] at n ∈ {4, 8, 16, 64}, each with the
//!   allocations of two runs of it on a fresh thread (`cold`, then
//!   `warm`, which starts from the buffers the first left behind);
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
//! The allocation columns are counted by the `experiments` binary's
//! global allocator, which bumps [`ALLOCATIONS`]. A process without it
//! cannot render them and [`counts`] panics there, so the library's own
//! test compares every other column. They are recorded from a release
//! build (a debug build counts the same today, but nothing pins that).
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

use std::fmt::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

use crusader_chaos::{builtin_catalog_dir, run_scenario, Catalog, Executor};
use crusader_core::{bounds, max_faults_with_signatures, CpsNode, FleetNode, Params, PulseClient};
use crusader_crypto::NodeId;
use crusader_runtime::RuntimeConfig;
use crusader_sim::metrics::{pulse_stats, resync_times};
use crusader_sim::{SilentAdversary, Trace};
use crusader_time::Dur;

use crate::cli::Failure;
use crate::Scenario;

/// System sizes of the ledger's `cps` rows.
pub const CPS_SNAPSHOT_NS: &[usize] = &[4, 8, 16, 64];

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
/// write-only count ledger — `cps`, `recovery`, `catalog`; v7: the `cps`
/// rows' `cold` and `warm` allocation columns).
pub const SCHEMA: &str = "crusader-bench-cps/v7";

/// Heap counters a counting global allocator bumps: the `experiments`
/// binary installs one, and [`counts`] reads them. Sizes are the ones
/// requested; a `realloc` counts as one allocation of its new size.
#[derive(Debug)]
pub struct AllocCounters {
    allocations: AtomicU64,
    allocated_bytes: AtomicU64,
    live_bytes: AtomicU64,
    peak_live_bytes: AtomicU64,
}

/// The process's [`AllocCounters`].
pub static ALLOCATIONS: AllocCounters = AllocCounters {
    allocations: AtomicU64::new(0),
    allocated_bytes: AtomicU64::new(0),
    live_bytes: AtomicU64::new(0),
    peak_live_bytes: AtomicU64::new(0),
};

impl AllocCounters {
    /// Records a block of `size` bytes allocated, or reallocated from
    /// `freed` bytes (0 for a fresh allocation).
    pub fn allocated(&self, size: usize, freed: usize) {
        self.allocations.fetch_add(1, Relaxed);
        self.allocated_bytes.fetch_add(size as u64, Relaxed);
        let live = self.live_bytes.fetch_add(size as u64, Relaxed) + size as u64;
        self.peak_live_bytes.fetch_max(live, Relaxed);
        self.freed(freed);
    }

    /// Records a block of `size` bytes freed.
    pub fn freed(&self, size: usize) {
        self.live_bytes.fetch_sub(size as u64, Relaxed);
    }

    /// What `f` allocates, run alone in the process (the counters are
    /// global, so another thread allocating meanwhile would count too),
    /// with its peak taken above `base` live bytes.
    ///
    /// # Panics
    ///
    /// Panics if `f` allocated nothing, which means no counting
    /// allocator is installed.
    fn measure(&self, base: u64, f: impl FnOnce()) -> AllocCount {
        let allocations = self.allocations.load(Relaxed);
        let bytes = self.allocated_bytes.load(Relaxed);
        let live = self.live_bytes.load(Relaxed);
        self.peak_live_bytes.store(live, Relaxed);
        f();
        let count = AllocCount {
            allocations: self.allocations.load(Relaxed) - allocations,
            allocated_bytes: self.allocated_bytes.load(Relaxed) - bytes,
            peak_live_bytes: self.peak_live_bytes.load(Relaxed).saturating_sub(base),
        };
        assert!(
            count.allocations > 0,
            "no allocation was counted: the ledger's allocation columns need the counting \
             global allocator that the experiments binary installs"
        );
        count
    }
}

/// What one run allocated: blocks, their bytes, and the most bytes live
/// at once above a base.
#[derive(Clone, Copy, Debug)]
struct AllocCount {
    /// Blocks allocated or reallocated.
    allocations: u64,
    /// Bytes those blocks requested.
    allocated_bytes: u64,
    /// Peak live bytes over the run, above the base.
    peak_live_bytes: u64,
}

impl fmt::Display for AllocCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{\"allocations\": {}, \"allocated_bytes\": {}, \"peak_live_bytes\": {}}}",
            self.allocations, self.allocated_bytes, self.peak_live_bytes
        )
    }
}

/// Two runs of `scenario` on a fresh thread: the first starts with
/// nothing kept from an earlier run, the second from what the first
/// left on the thread. Both peaks are taken above the live bytes before
/// the first, so the second's includes what the first left.
///
/// # Panics
///
/// Panics if no counting allocator is installed.
fn cold_and_warm(scenario: &Scenario) -> [AllocCount; 2] {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let base = ALLOCATIONS.live_bytes.load(Relaxed);
                [(); 2].map(|()| {
                    ALLOCATIONS.measure(base, || {
                        scenario.run_cps_trace(Box::new(SilentAdversary));
                    })
                })
            })
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    })
}

/// One time-to-resync measurement: `crashes` nodes crash mid-run in
/// staggered windows and rejoin through the signed resync handshake, on
/// the deterministic simulator. Seed-determinism makes every
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
const SIM: Executor = Executor::Sim {
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
/// Panics if a recovery row loses a rejoin, or if the committed catalog fails to load — the
/// ledger must not record a broken engine — and if no counting allocator
/// is installed.
#[must_use]
pub fn counts() -> String {
    ledger(true)
}

/// The ledger, with the `cps` rows' allocation columns or without them.
fn ledger(allocations: bool) -> String {
    let mut cps = Vec::new();
    for &n in CPS_SNAPSHOT_NS {
        let (trace, _) = cps_scenario(n).run_cps_trace(Box::new(SilentAdversary));
        let mut row = format!("{{\"n\": {n}, {}", count_columns(&trace));
        if allocations {
            let [cold, warm] = cold_and_warm(&cps_scenario(n));
            let _ = write!(row, ", \"cold\": {cold}, \"warm\": {warm}");
        }
        cps.push(row + "}");
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
        let out = run_scenario(sc, SIM);
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

/// Measures one recovery grid point on the simulator.
///
/// # Panics
///
/// Panics if a crashed node never completes its rejoin — the committed
/// ledger must not record a broken recovery path.
#[must_use]
pub fn measure_recovery_row(n: usize, crashes: usize) -> RecoveryRow {
    let sc = recovery_scenario(n, crashes);
    let timeline = sc.timeline();
    let out = run_scenario(&sc, SIM);
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

    /// One regeneration shared by the tests below. A test binary has no
    /// counting allocator, so it renders every column but the `cps`
    /// rows' allocations.
    fn regenerated() -> &'static str {
        static LEDGER: OnceLock<String> = OnceLock::new();
        LEDGER.get_or_init(|| ledger(false))
    }

    /// The ledger text with the `cps` rows' allocation columns cut out.
    fn without_allocations(ledger: &str) -> String {
        let mut out = String::new();
        for line in ledger.lines() {
            match line.find(", \"cold\": ") {
                Some(at) => {
                    let comma = if line.ends_with(',') { "," } else { "" };
                    let _ = writeln!(out, "{}}}{comma}", &line[..at]);
                }
                None => {
                    let _ = writeln!(out, "{line}");
                }
            }
        }
        out
    }

    /// The committed ledger without its allocation columns.
    fn committed() -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_cps.json");
        let text =
            std::fs::read_to_string(path).expect("BENCH_cps.json is committed at the repo root");
        without_allocations(&text)
    }

    #[test]
    fn committed_counts_are_current() {
        if let Err(drift) = check_text(&committed(), regenerated()) {
            panic!("{}", drift.message);
        }
    }

    #[test]
    fn measure_is_deterministic_in_counts() {
        assert_eq!(ledger(false), regenerated());
    }

    #[test]
    fn every_cps_row_has_allocation_columns() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_cps.json");
        let text = std::fs::read_to_string(path).expect("BENCH_cps.json is committed");
        let rows: Vec<&str> = text
            .lines()
            .filter(|l| {
                l.contains("\"n\": ")
                    && l.contains("\"events_processed\"")
                    && !l.contains("scenario")
            })
            .collect();
        assert_eq!(rows.len(), CPS_SNAPSHOT_NS.len(), "{text}");
        for row in rows {
            assert!(
                row.contains(", \"cold\": {\"allocations\": ")
                    && row.contains(", \"warm\": {\"allocations\": "),
                "{row}"
            );
        }
    }

    /// Without a counting allocator the allocation columns cannot be
    /// rendered, and saying so beats writing zeros.
    #[test]
    fn allocation_columns_refuse_to_count_without_the_allocator() {
        let err = std::panic::catch_unwind(|| cold_and_warm(&cps_scenario(4)))
            .expect_err("a test binary has no counting allocator");
        let text = err
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| err.downcast_ref::<&str>().copied())
            .unwrap_or("");
        assert!(text.contains("counting"), "{text}");
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
