//! Committed perf snapshots (`BENCH_*.json`).
//!
//! The ROADMAP's "perf baselines" item: criterion benches report numbers,
//! but nothing *records* them, so a perf PR cannot prove a speedup. This
//! module measures [`Scenario::run_cps`] for a fixed grid of system sizes
//! and reads/writes `BENCH_cps.json` at the repo root:
//!
//! * the `baseline` section is committed **before** an optimization lands
//!   (`perf_snapshot --json BENCH_cps.json --section baseline`);
//! * the `current` section is refreshed afterwards
//!   (`... --section current`), making the speedup a diffable fact;
//! * the `queue` section (`... --section queue`, schema v3) re-measures
//!   the same small-`n` grid on the ladder-queue engine, additionally
//!   recording [`Trace::queue_spill_count`] per row (zero for these
//!   scenarios, and gated) — `baseline → current → queue` is the engine's
//!   committed perf history, printable as a speedup table with
//!   `perf_snapshot --compare`;
//! * the `sharded` section (`... --section sharded`) covers the large-`n`
//!   regime (n ∈ {64, 128, 256}): each row runs the *same* seeded
//!   scenario through both the single-lane and the sharded executor,
//!   asserts their event/message counts identical, and records both wall
//!   clocks — committing the lanes > 1 speedup as a diffable fact;
//! * the `runtime` section (`... --section runtime`, schema v4) is the
//!   wall-clock runtime's scale axis: CPS deployments at
//!   n ∈ {64, 512, 2048} on the event-driven `reactor` backend
//!   ([`crusader_runtime::Backend::Reactor`]), recording completed
//!   pulses, pulses/sec and messages/sec, plus the thread-per-node
//!   backend's numbers at the sizes where spawning that many OS threads
//!   is still reasonable (n ≤ 512) for the reactor-vs-threads
//!   comparison. Real scheduling makes these rows *non*-deterministic,
//!   so `--check` gates liveness and safety (≥ 1 completed pulse, zero
//!   violations on a reactor replay), never counts or wall-clock;
//! * the `recovery` section (`... --section recovery`, schema v5) is the
//!   self-healing axis: a crash-and-rejoin scenario per grid point
//!   (n ∈ {4, 8, 16} × {one crash, the full crash budget}) replayed on
//!   the deterministic simulator with the [`crusader_core::RecoveringNode`]
//!   fleet, recording each row's completed rejoin count and its
//!   worst/mean time-to-resync against the documented catch-up bound
//!   `(2d + u)θ + 2·p_max` (the resync collect window plus two maximum
//!   round periods). The simulator is seed-deterministic, so `--check`
//!   gates the rejoin count *and* the resync times themselves (to the
//!   committed file's millisecond precision), plus zero violations;
//! * CI replays the scenarios and fails if `events_processed` /
//!   `messages_delivered` drift from the committed counts
//!   (`perf_snapshot --check BENCH_cps.json`, optionally bounded by
//!   `--max-n`) — wall-clock is reported but never gated, since runners
//!   vary. The check also replays the smallest committed sharded row with
//!   the persistent worker pool forced on
//!   ([`Scenario::force_parallel`](crate::Scenario)), gating
//!   pool-vs-single count drift even on single-CPU runners.
//!
//! # Why the large runtime rows are one-to-many deployments
//!
//! Full-mesh CPS costs `Θ(h²·n)` deliveries per round (h honest nodes
//! each echo-broadcast every honest dealer's direct message): at
//! n = 2048 with maximum silent faults that is ≈ 2 × 10⁹ deliveries per
//! pulse — physically impossible on any single host, independent of the
//! executor. The scale rows therefore deploy the SecureTime-style
//! one-to-many fleet ([`crusader_core::FleetNode`]): a core of
//! [`RUNTIME_CORE`] full CPS participants plus listen-only
//! [`crusader_core::PulseClient`]s, costing `Θ(core²·n)` per round —
//! linear in the client population, which is the whole point of that
//! deployment model. The n = 64 row stays a full mesh (core = n, max
//! silent faults) so the backends are also compared on the paper's
//! original workload.
//!
//! [`Trace::queue_spill_count`]: crusader_sim::Trace::queue_spill_count
//!
//! The vendored `serde` stand-in has no data-format backend
//! (vendor/README.md), so the JSON codec here is hand-rolled: a writer for
//! exactly this schema and a minimal recursive-descent reader.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crusader_chaos::{run_scenario, Executor};
use crusader_core::{max_faults_with_signatures, CpsNode, FleetNode, Params, PulseClient};
use crusader_crypto::NodeId;
use crusader_runtime::{Backend, RuntimeConfig};
use crusader_sim::metrics::{pulse_stats, resync_times};
use crusader_sim::SilentAdversary;
use crusader_time::Dur;

use crate::Scenario;

/// System sizes measured by the CPS snapshot (mirrors the `cps_sim`
/// criterion bench).
pub const CPS_SNAPSHOT_NS: &[usize] = &[4, 8, 16];

/// System sizes measured by the sharded snapshot — the large-`n` regime
/// the sharded executor exists for (the single-lane engine is run at the
/// same sizes for the committed speedup comparison).
pub const CPS_SHARDED_NS: &[usize] = &[64, 128, 256];

/// Lane count used by the sharded snapshot rows.
pub const CPS_SHARDED_LANES: usize = 8;

/// Pulses per measured run (mirrors the `cps_sim` criterion bench).
pub const CPS_SNAPSHOT_PULSES: u64 = 8;

/// System sizes measured by the wall-clock `runtime` section.
pub const RUNTIME_SNAPSHOT_NS: &[usize] = &[64, 512, 2048];

/// Core size of the one-to-many fleet rows (n > [`RUNTIME_MESH_MAX_N`]):
/// a CPS core of this many dealers serves pulses to `n − core`
/// listen-only clients. See the [module docs](self) for why the large
/// rows cannot be full meshes.
pub const RUNTIME_CORE: usize = 32;

/// Largest runtime row run as a full CPS mesh (core = n, max silent
/// faults) rather than a core-plus-clients fleet.
pub const RUNTIME_MESH_MAX_N: usize = 64;

/// Largest runtime row where the thread-per-node backend is also
/// measured for the comparison column; beyond this, spawning n OS
/// threads is the failure mode the reactor exists to avoid, and the row
/// records the reactor only.
pub const RUNTIME_THREADS_MAX_N: usize = 512;

/// System sizes measured by the `recovery` section.
pub const RECOVERY_NS: &[usize] = &[4, 8, 16];

/// Schema tag written into the file, bumped on layout changes (v2 added
/// the `sharded` section; v3 the `queue` section with per-row
/// `spill_count`; v4 the wall-clock `runtime` section; v5 the
/// time-to-resync `recovery` section).
pub const SCHEMA: &str = "crusader-bench-cps/v5";

/// One measured row: a full `run_cps` at system size `n`.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotRow {
    /// System size.
    pub n: usize,
    /// Best-of-reps wall clock for one full run, in microseconds.
    pub wall_clock_us: f64,
    /// Events processed by the engine (deterministic per seed).
    pub events_processed: u64,
    /// Messages delivered (deterministic per seed).
    pub messages_delivered: u64,
}

/// A labelled set of rows (the `baseline` or `current` section).
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotSection {
    /// Human-readable provenance ("pre-optimization seed engine", …).
    pub label: String,
    /// One row per measured system size.
    pub rows: Vec<SnapshotRow>,
}

/// One sharded-vs-single measurement at system size `n`: the same seeded
/// scenario run by both executors, with the deterministic counts asserted
/// identical at measurement time.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedRow {
    /// System size.
    pub n: usize,
    /// Lane count of the sharded run.
    pub lanes: usize,
    /// Best-of-reps wall clock of the single-lane engine, in µs.
    pub wall_clock_single_us: f64,
    /// Best-of-reps wall clock of the sharded engine, in µs.
    pub wall_clock_sharded_us: f64,
    /// Events processed (identical across both executors by assertion).
    pub events_processed: u64,
    /// Messages delivered (identical across both executors by assertion).
    pub messages_delivered: u64,
}

/// The `sharded` section: large-`n` rows comparing both executors.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardedSection {
    /// Human-readable provenance.
    pub label: String,
    /// One row per measured system size.
    pub rows: Vec<ShardedRow>,
}

/// One measured row of the `queue` section: the small-`n` grid on the
/// ladder-queue engine, with the spill-heap diagnostic.
#[derive(Clone, Debug, PartialEq)]
pub struct QueueRow {
    /// System size.
    pub n: usize,
    /// Best-of-reps wall clock for one full run, in microseconds.
    pub wall_clock_us: f64,
    /// Events processed (deterministic per seed).
    pub events_processed: u64,
    /// Messages delivered (deterministic per seed).
    pub messages_delivered: u64,
    /// Ladder-queue spill-heap overflows
    /// ([`crusader_sim::Trace::queue_spill_count`]); deterministic per
    /// seed, expected 0 for these scenarios, and gated by `--check`.
    pub spill_count: u64,
}

/// The `queue` section: the ladder-queue engine's committed numbers.
#[derive(Clone, Debug, PartialEq)]
pub struct QueueSection {
    /// Human-readable provenance.
    pub label: String,
    /// One row per measured system size.
    pub rows: Vec<QueueRow>,
}

/// One wall-clock runtime measurement: a CPS deployment at system size
/// `n` on the reactor backend (and, where still reasonable, the thread
/// backend for comparison). Real scheduling makes the numbers
/// environment-dependent: `--check` gates only liveness (≥ 1 pulse) and
/// safety (zero violations), never rates.
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeRow {
    /// System size (total nodes hosted by the runtime).
    pub n: usize,
    /// CPS core size; `core == n` means a full mesh with maximum silent
    /// faults, `core < n` a one-to-many fleet (`n − core` clients).
    pub core: usize,
    /// Crashed-from-start nodes (mesh rows only).
    pub silent: usize,
    /// Reactor worker threads (0 = `available_parallelism()`).
    pub workers: usize,
    /// Configured wall-clock run length in seconds.
    pub run_secs: f64,
    /// Pulses completed by every active node on the reactor backend.
    pub reactor_pulses: u64,
    /// Network deliveries per second on the reactor backend.
    pub reactor_msgs_per_sec: f64,
    /// Whether the thread backend was measured at this size (0/1; the
    /// hand-rolled JSON codec has no booleans or nulls).
    pub threads_attempted: u64,
    /// Pulses completed on the thread backend (0 when not attempted).
    pub threads_pulses: u64,
    /// Network deliveries per second on the thread backend.
    pub threads_msgs_per_sec: f64,
    /// Violations recorded by the thread backend's run — *not* gated:
    /// committed evidence of where thread-per-node stops being a viable
    /// deployment (e.g. whole core rounds blowing the fault budget at
    /// n = 512 on a small host).
    pub threads_violations: u64,
    /// Violations recorded by the reactor run; gated to 0 by `--check`.
    pub violations: u64,
}

/// The `runtime` section: the wall-clock scale axis.
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeSection {
    /// Human-readable provenance.
    pub label: String,
    /// One row per measured system size.
    pub rows: Vec<RuntimeRow>,
}

/// One time-to-resync measurement: `crashes` nodes crash mid-run in
/// staggered windows and rejoin through the signed resync handshake, on
/// the deterministic single-lane simulator. Seed-determinism makes every
/// column exact, so `--check` gates the counts *and* the times.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryRow {
    /// System size.
    pub n: usize,
    /// Nodes that crash and recover (1, or the full budget `⌈n/2⌉ − 1`).
    pub crashes: usize,
    /// Completed rejoins — recovered nodes that pulsed again (gated to
    /// equal `crashes`).
    pub resyncs: u64,
    /// Worst recovery-to-next-pulse time across the row, in ms.
    pub max_resync_ms: f64,
    /// Mean recovery-to-next-pulse time across the row, in ms.
    pub mean_resync_ms: f64,
    /// The documented catch-up bound `(2d + u)θ + 2·p_max` in ms: the
    /// resync collect window plus two maximum round periods. The row's
    /// scenario pins it as its `resync_ms` invariant.
    pub bound_ms: f64,
    /// Violations (protocol or invariant) recorded by the replay; gated
    /// to 0 by `--check`.
    pub violations: u64,
}

/// The `recovery` section: time-to-resync vs system size and crash
/// fraction.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoverySection {
    /// Human-readable provenance.
    pub label: String,
    /// One row per (n, crash-count) grid point.
    pub rows: Vec<RecoveryRow>,
}

/// The whole `BENCH_cps.json` document.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CpsSnapshot {
    /// Pulses per run at measurement time.
    pub pulses: u64,
    /// The committed pre-optimization numbers.
    pub baseline: Option<SnapshotSection>,
    /// The numbers for the slab-heap engine (PR 2 state; history).
    pub current: Option<SnapshotSection>,
    /// The ladder-queue engine's numbers plus spill diagnostics.
    pub queue: Option<QueueSection>,
    /// Large-`n` sharded-vs-single comparison rows.
    pub sharded: Option<ShardedSection>,
    /// Wall-clock runtime rows (reactor vs threads).
    pub runtime: Option<RuntimeSection>,
    /// Time-to-resync rows (crash-and-rejoin on the simulator).
    pub recovery: Option<RecoverySection>,
}

/// The scenario measured for row `n` — one place, so the snapshot, the
/// criterion bench, and the CI check cannot drift apart.
#[must_use]
pub fn cps_scenario(n: usize) -> Scenario {
    let mut s = Scenario::new(n, Dur::from_millis(1.0), Dur::from_micros(10.0), 1.0001);
    s.pulses = CPS_SNAPSHOT_PULSES;
    s
}

/// Measures every size in [`CPS_SNAPSHOT_NS`]: `reps` timed runs per size
/// (after one warm-up), keeping the minimum wall clock.
///
/// A [`QueueRow`] is a strict superset of a [`SnapshotRow`], so this is
/// [`measure_cps_queue`] with the spill column dropped — one measurement
/// loop serves every small-`n` section.
///
/// # Panics
///
/// Panics if repeated runs disagree on event/message counts — that would
/// mean the engine lost seed-determinism, which no snapshot should paper
/// over.
#[must_use]
pub fn measure_cps(reps: usize) -> Vec<SnapshotRow> {
    measure_cps_queue(reps).into_iter().map(plain_row).collect()
}

/// Projects a measured [`QueueRow`] onto the v1 [`SnapshotRow`] shape.
#[must_use]
pub fn plain_row(row: QueueRow) -> SnapshotRow {
    SnapshotRow {
        n: row.n,
        wall_clock_us: row.wall_clock_us,
        events_processed: row.events_processed,
        messages_delivered: row.messages_delivered,
    }
}

/// Measures every size in [`CPS_SNAPSHOT_NS`] for the `queue` section:
/// wall clock plus the deterministic counts *and* the ladder queue's
/// spill diagnostic.
///
/// # Panics
///
/// Panics if repeated runs disagree on event/message/spill counts.
#[must_use]
pub fn measure_cps_queue(reps: usize) -> Vec<QueueRow> {
    CPS_SNAPSHOT_NS
        .iter()
        .map(|&n| {
            let s = cps_scenario(n);
            let (reference, _) = s.run_cps_trace(Box::new(SilentAdversary)); // warm-up
            let mut best_us = f64::INFINITY;
            for _ in 0..reps.max(1) {
                let started = Instant::now();
                let (trace, _) = s.run_cps_trace(Box::new(SilentAdversary));
                let elapsed_us = started.elapsed().as_secs_f64() * 1e6;
                best_us = best_us.min(elapsed_us);
                assert_eq!(
                    (
                        trace.events_processed,
                        trace.messages_delivered,
                        trace.queue_spill_count
                    ),
                    (
                        reference.events_processed,
                        reference.messages_delivered,
                        reference.queue_spill_count
                    ),
                    "non-deterministic run at n={n}"
                );
            }
            QueueRow {
                n,
                wall_clock_us: best_us,
                events_processed: reference.events_processed,
                messages_delivered: reference.messages_delivered,
                spill_count: reference.queue_spill_count,
            }
        })
        .collect()
}

/// Replays the sharded scenario at size `n` with the persistent worker
/// pool forced on ([`Scenario::force_parallel`](crate::Scenario)) and
/// returns its `(events_processed, messages_delivered)`.
///
/// The CI bench-smoke job compares these against the committed sharded
/// row: the pool is a scheduling change, so any count drift versus the
/// single-lane engine at the same seed is a correctness failure, and
/// forcing the pool makes the check meaningful on single-CPU runners
/// where it would otherwise never engage.
#[must_use]
pub fn replay_sharded_pool(n: usize) -> (u64, u64) {
    let mut s = cps_scenario(n);
    s.lanes = CPS_SHARDED_LANES;
    s.force_parallel = Some(true);
    let (trace, _) = s.run_cps_trace(Box::new(SilentAdversary));
    (trace.events_processed, trace.messages_delivered)
}

/// Measures every size in [`CPS_SHARDED_NS`] at or below `max_n` with
/// both executors: one warm-up plus `reps` timed runs each, keeping the
/// minimum wall clock per executor.
///
/// # Panics
///
/// Panics if the sharded executor's event or message counts differ from
/// the single-lane engine's at the same seed — the exact drift the CI
/// bench-smoke job gates on — or if repeated runs disagree with
/// themselves.
#[must_use]
pub fn measure_cps_sharded(reps: usize, max_n: Option<usize>) -> Vec<ShardedRow> {
    CPS_SHARDED_NS
        .iter()
        .filter(|&&n| max_n.is_none_or(|cap| n <= cap))
        .map(|&n| {
            let single = cps_scenario(n);
            let mut sharded = cps_scenario(n);
            sharded.lanes = CPS_SHARDED_LANES;
            let (reference, _) = single.run_cps_trace(Box::new(SilentAdversary)); // warm-up
            let mut best = [f64::INFINITY; 2];
            for (which, s) in [&single, &sharded].into_iter().enumerate() {
                if which == 1 {
                    // Warm the sharded executor separately: it has its own
                    // allocations and thread paths, and an unwarmed first
                    // rep would bias the committed comparison against it.
                    let (warm, _) = s.run_cps_trace(Box::new(SilentAdversary));
                    assert_eq!(
                        (warm.events_processed, warm.messages_delivered),
                        (reference.events_processed, reference.messages_delivered),
                        "sharded/single count drift at n={n}"
                    );
                }
                for _ in 0..reps.max(1) {
                    let started = Instant::now();
                    let (trace, _) = s.run_cps_trace(Box::new(SilentAdversary));
                    let elapsed_us = started.elapsed().as_secs_f64() * 1e6;
                    best[which] = best[which].min(elapsed_us);
                    assert_eq!(
                        (trace.events_processed, trace.messages_delivered),
                        (reference.events_processed, reference.messages_delivered),
                        "sharded/single count drift at n={n}"
                    );
                }
            }
            ShardedRow {
                n,
                lanes: CPS_SHARDED_LANES,
                wall_clock_single_us: best[0],
                wall_clock_sharded_us: best[1],
                events_processed: reference.events_processed,
                messages_delivered: reference.messages_delivered,
            }
        })
        .collect()
}

/// The wall-clock deployment measured for runtime row `n` — one place,
/// so the snapshot, the `e10_runtime_scale` experiment binary, and the
/// CI smoke step cannot drift apart. Returns the runtime config (with
/// the backend left at its default, to be overridden by the caller),
/// the core size, and the core's protocol parameters.
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
    } else if n <= RUNTIME_THREADS_MAX_N {
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
        n,
        silent,
        d,
        u,
        theta,
        max_offset: derived.s,
        run_for: Duration::from_millis(run_ms),
        seed: 0xCAFE ^ (n as u64),
        backend: Backend::Reactor,
        workers: None,
        chaos: None,
        observer: None,
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

/// Runs the runtime scenario for size `n` on `backend` and summarizes.
#[must_use]
pub fn run_runtime(n: usize, backend: Backend, workers: Option<usize>) -> RuntimeOutcome {
    let (mut cfg, core, params) = runtime_scenario(n);
    cfg.backend = backend;
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

/// Measures every size in [`RUNTIME_SNAPSHOT_NS`] at or below `max_n`:
/// the reactor backend always, the thread backend additionally up to
/// [`RUNTIME_THREADS_MAX_N`]. One run per backend per size — these are
/// wall-clock deployments lasting seconds each, and the numbers are
/// environment-dependent by nature (rates, not gates).
#[must_use]
pub fn measure_runtime(max_n: Option<usize>, workers: Option<usize>) -> Vec<RuntimeRow> {
    RUNTIME_SNAPSHOT_NS
        .iter()
        .filter(|&&n| max_n.is_none_or(|cap| n <= cap))
        .map(|&n| {
            let (cfg, core, params) = runtime_scenario(n);
            let reactor = run_runtime(n, Backend::Reactor, workers);
            let threads = (n <= RUNTIME_THREADS_MAX_N)
                .then(|| run_runtime(n, Backend::Threads, None));
            RuntimeRow {
                n,
                core,
                silent: cfg.silent.len(),
                workers: workers.unwrap_or(0),
                run_secs: reactor.run_secs,
                reactor_pulses: reactor.pulses,
                reactor_msgs_per_sec: reactor.messages as f64 / reactor.run_secs,
                threads_attempted: u64::from(threads.is_some()),
                threads_pulses: threads.as_ref().map_or(0, |t| t.pulses),
                threads_msgs_per_sec: threads
                    .as_ref()
                    .map_or(0.0, |t| t.messages as f64 / t.run_secs),
                threads_violations: threads
                    .as_ref()
                    .map_or(0, |t| t.violations.len() as u64),
                violations: reactor.violations.len() as u64,
            }
            .validate(params.f)
        })
        .collect()
}

/// The crash-and-rejoin scenario measured for recovery row
/// `(n, crashes)` — one place, so the snapshot and the CI check cannot
/// drift apart. Crash windows are staggered 40 ms apart so recoveries
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
    let collect_window = (d * 2.0 + u) * theta;
    let bound = collect_window + derived.p_max * 2.0;
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
/// snapshot must not record a broken recovery path.
#[must_use]
pub fn measure_recovery_row(n: usize, crashes: usize) -> RecoveryRow {
    let sc = recovery_scenario(n, crashes);
    let timeline = sc.timeline();
    let out = run_scenario(
        &sc,
        Executor::Sim {
            lanes: 1,
            force_parallel: None,
        },
    );
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

/// Measures every grid point in [`RECOVERY_NS`] × {one crash, the full
/// crash budget} at or below `max_n`, deduplicating sizes where the
/// budget *is* one crash.
#[must_use]
pub fn measure_recovery(max_n: Option<usize>) -> Vec<RecoveryRow> {
    RECOVERY_NS
        .iter()
        .filter(|&&n| max_n.is_none_or(|cap| n <= cap))
        .flat_map(|&n| {
            let f = max_faults_with_signatures(n);
            let mut counts = vec![1];
            if f > 1 {
                counts.push(f);
            }
            counts
                .into_iter()
                .map(move |crashes| measure_recovery_row(n, crashes))
        })
        .collect()
}

impl RuntimeRow {
    /// Sanity net under `--json`: a recorded row must itself be live and
    /// violation-free, or the committed file would gate CI on a broken
    /// scenario.
    fn validate(self, _f: usize) -> Self {
        assert!(
            self.reactor_pulses >= 1,
            "runtime row n={} completed no pulses on the reactor",
            self.n
        );
        assert_eq!(
            self.violations, 0,
            "runtime row n={} recorded violations",
            self.n
        );
        self
    }
}

/// Serializes a snapshot to the committed JSON layout.
#[must_use]
pub fn to_json(snap: &CpsSnapshot) -> String {
    // Each section is rendered to its own block; the joiner owns the
    // commas, so adding a section can never mis-terminate another.
    fn section_block<R>(name: &str, label: &str, rows: &[R], row: impl Fn(&R) -> String) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "  \"{name}\": {{");
        let _ = writeln!(out, "    \"label\": \"{}\",", escape(label));
        out.push_str("    \"rows\": [\n");
        for (j, r) in rows.iter().enumerate() {
            let _ = write!(out, "      {}", row(r));
            out.push_str(if j + 1 < rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("    ]\n  }");
        out
    }
    let mut blocks: Vec<String> = Vec::new();
    for (name, section) in [
        ("baseline", snap.baseline.as_ref()),
        ("current", snap.current.as_ref()),
    ] {
        if let Some(section) = section {
            blocks.push(section_block(name, &section.label, &section.rows, |row| {
                format!(
                    "{{\"n\": {}, \"wall_clock_us\": {:.3}, \
                     \"events_processed\": {}, \"messages_delivered\": {}}}",
                    row.n, row.wall_clock_us, row.events_processed, row.messages_delivered
                )
            }));
        }
    }
    if let Some(queue) = &snap.queue {
        blocks.push(section_block("queue", &queue.label, &queue.rows, |row| {
            format!(
                "{{\"n\": {}, \"wall_clock_us\": {:.3}, \"events_processed\": {}, \
                 \"messages_delivered\": {}, \"spill_count\": {}}}",
                row.n,
                row.wall_clock_us,
                row.events_processed,
                row.messages_delivered,
                row.spill_count
            )
        }));
    }
    if let Some(sharded) = &snap.sharded {
        blocks.push(section_block(
            "sharded",
            &sharded.label,
            &sharded.rows,
            |row| {
                format!(
                    "{{\"n\": {}, \"lanes\": {}, \"wall_clock_single_us\": {:.3}, \
                     \"wall_clock_sharded_us\": {:.3}, \"events_processed\": {}, \
                     \"messages_delivered\": {}}}",
                    row.n,
                    row.lanes,
                    row.wall_clock_single_us,
                    row.wall_clock_sharded_us,
                    row.events_processed,
                    row.messages_delivered
                )
            },
        ));
    }
    if let Some(runtime) = &snap.runtime {
        blocks.push(section_block(
            "runtime",
            &runtime.label,
            &runtime.rows,
            |row| {
                format!(
                    "{{\"n\": {}, \"core\": {}, \"silent\": {}, \"workers\": {}, \
                     \"run_secs\": {:.3}, \"reactor_pulses\": {}, \
                     \"reactor_msgs_per_sec\": {:.1}, \"threads_attempted\": {}, \
                     \"threads_pulses\": {}, \"threads_msgs_per_sec\": {:.1}, \
                     \"threads_violations\": {}, \"violations\": {}}}",
                    row.n,
                    row.core,
                    row.silent,
                    row.workers,
                    row.run_secs,
                    row.reactor_pulses,
                    row.reactor_msgs_per_sec,
                    row.threads_attempted,
                    row.threads_pulses,
                    row.threads_msgs_per_sec,
                    row.threads_violations,
                    row.violations
                )
            },
        ));
    }
    if let Some(recovery) = &snap.recovery {
        blocks.push(section_block(
            "recovery",
            &recovery.label,
            &recovery.rows,
            |row| {
                format!(
                    "{{\"n\": {}, \"crashes\": {}, \"resyncs\": {}, \
                     \"max_resync_ms\": {:.3}, \"mean_resync_ms\": {:.3}, \
                     \"bound_ms\": {:.3}, \"violations\": {}}}",
                    row.n,
                    row.crashes,
                    row.resyncs,
                    row.max_resync_ms,
                    row.mean_resync_ms,
                    row.bound_ms,
                    row.violations
                )
            },
        ));
    }
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = write!(out, "  \"pulses\": {}", snap.pulses);
    for block in blocks {
        out.push_str(",\n");
        out.push_str(&block);
    }
    out.push_str("\n}\n");
    out
}

/// Parses a snapshot written by [`to_json`].
///
/// # Errors
///
/// Returns a description of the first syntax or schema problem.
pub fn from_json(text: &str) -> Result<CpsSnapshot, String> {
    let value = Json::parse(text)?;
    let top = value.as_object()?;
    let schema = get(top, "schema")?.as_str()?;
    if schema != SCHEMA {
        return Err(format!("unsupported schema {schema:?} (want {SCHEMA:?})"));
    }
    let mut snap = CpsSnapshot {
        pulses: get(top, "pulses")?.as_u64()?,
        ..CpsSnapshot::default()
    };
    for (name, slot) in [
        ("baseline", &mut snap.baseline),
        ("current", &mut snap.current),
    ] {
        let Some((_, section)) = top.iter().find(|(k, _)| k == name) else {
            continue;
        };
        let section = section.as_object()?;
        let rows = get(section, "rows")?
            .as_array()?
            .iter()
            .map(|row| {
                let row = row.as_object()?;
                Ok(SnapshotRow {
                    n: usize::try_from(get(row, "n")?.as_u64()?)
                        .map_err(|e| e.to_string())?,
                    wall_clock_us: get(row, "wall_clock_us")?.as_f64()?,
                    events_processed: get(row, "events_processed")?.as_u64()?,
                    messages_delivered: get(row, "messages_delivered")?.as_u64()?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        *slot = Some(SnapshotSection {
            label: get(section, "label")?.as_str()?.to_owned(),
            rows,
        });
    }
    if let Some((_, section)) = top.iter().find(|(k, _)| k == "queue") {
        let section = section.as_object()?;
        let rows = get(section, "rows")?
            .as_array()?
            .iter()
            .map(|row| {
                let row = row.as_object()?;
                Ok(QueueRow {
                    n: usize::try_from(get(row, "n")?.as_u64()?).map_err(|e| e.to_string())?,
                    wall_clock_us: get(row, "wall_clock_us")?.as_f64()?,
                    events_processed: get(row, "events_processed")?.as_u64()?,
                    messages_delivered: get(row, "messages_delivered")?.as_u64()?,
                    spill_count: get(row, "spill_count")?.as_u64()?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        snap.queue = Some(QueueSection {
            label: get(section, "label")?.as_str()?.to_owned(),
            rows,
        });
    }
    if let Some((_, section)) = top.iter().find(|(k, _)| k == "sharded") {
        let section = section.as_object()?;
        let rows = get(section, "rows")?
            .as_array()?
            .iter()
            .map(|row| {
                let row = row.as_object()?;
                Ok(ShardedRow {
                    n: usize::try_from(get(row, "n")?.as_u64()?).map_err(|e| e.to_string())?,
                    lanes: usize::try_from(get(row, "lanes")?.as_u64()?)
                        .map_err(|e| e.to_string())?,
                    wall_clock_single_us: get(row, "wall_clock_single_us")?.as_f64()?,
                    wall_clock_sharded_us: get(row, "wall_clock_sharded_us")?.as_f64()?,
                    events_processed: get(row, "events_processed")?.as_u64()?,
                    messages_delivered: get(row, "messages_delivered")?.as_u64()?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        snap.sharded = Some(ShardedSection {
            label: get(section, "label")?.as_str()?.to_owned(),
            rows,
        });
    }
    if let Some((_, section)) = top.iter().find(|(k, _)| k == "runtime") {
        let section = section.as_object()?;
        let rows = get(section, "rows")?
            .as_array()?
            .iter()
            .map(|row| {
                let row = row.as_object()?;
                let uint = |key: &str| -> Result<usize, String> {
                    usize::try_from(get(row, key)?.as_u64()?).map_err(|e| e.to_string())
                };
                Ok(RuntimeRow {
                    n: uint("n")?,
                    core: uint("core")?,
                    silent: uint("silent")?,
                    workers: uint("workers")?,
                    run_secs: get(row, "run_secs")?.as_f64()?,
                    reactor_pulses: get(row, "reactor_pulses")?.as_u64()?,
                    reactor_msgs_per_sec: get(row, "reactor_msgs_per_sec")?.as_f64()?,
                    threads_attempted: get(row, "threads_attempted")?.as_u64()?,
                    threads_pulses: get(row, "threads_pulses")?.as_u64()?,
                    threads_msgs_per_sec: get(row, "threads_msgs_per_sec")?.as_f64()?,
                    threads_violations: get(row, "threads_violations")?.as_u64()?,
                    violations: get(row, "violations")?.as_u64()?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        snap.runtime = Some(RuntimeSection {
            label: get(section, "label")?.as_str()?.to_owned(),
            rows,
        });
    }
    if let Some((_, section)) = top.iter().find(|(k, _)| k == "recovery") {
        let section = section.as_object()?;
        let rows = get(section, "rows")?
            .as_array()?
            .iter()
            .map(|row| {
                let row = row.as_object()?;
                Ok(RecoveryRow {
                    n: usize::try_from(get(row, "n")?.as_u64()?).map_err(|e| e.to_string())?,
                    crashes: usize::try_from(get(row, "crashes")?.as_u64()?)
                        .map_err(|e| e.to_string())?,
                    resyncs: get(row, "resyncs")?.as_u64()?,
                    max_resync_ms: get(row, "max_resync_ms")?.as_f64()?,
                    mean_resync_ms: get(row, "mean_resync_ms")?.as_f64()?,
                    bound_ms: get(row, "bound_ms")?.as_f64()?,
                    violations: get(row, "violations")?.as_u64()?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        snap.recovery = Some(RecoverySection {
            label: get(section, "label")?.as_str()?.to_owned(),
            rows,
        });
    }
    Ok(snap)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing key {key:?}"))
}

/// A deliberately small JSON value — just enough to read files written by
/// [`to_json`] (objects, arrays, strings with basic escapes, numbers).
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    String(String),
    Number(f64),
}

impl Json {
    fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = Self::value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    fn value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut fields = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Json::Object(fields));
                }
                loop {
                    skip_ws(b, pos);
                    let Json::String(key) = Self::value(b, pos)? else {
                        return Err(format!("object key must be a string at byte {pos}"));
                    };
                    skip_ws(b, pos);
                    expect(b, pos, b':')?;
                    fields.push((key, Self::value(b, pos)?));
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Json::Object(fields));
                        }
                        other => return Err(format!("expected ',' or '}}', got {other:?}")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(b, pos);
                if b.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(Self::value(b, pos)?);
                    skip_ws(b, pos);
                    match b.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Json::Array(items));
                        }
                        other => return Err(format!("expected ',' or ']', got {other:?}")),
                    }
                }
            }
            Some(b'"') => {
                *pos += 1;
                // Accumulate raw bytes and decode once, so multi-byte
                // UTF-8 sequences survive intact.
                let mut raw = Vec::new();
                loop {
                    match b.get(*pos) {
                        Some(b'"') => {
                            *pos += 1;
                            return String::from_utf8(raw)
                                .map(Json::String)
                                .map_err(|e| format!("invalid UTF-8 in string: {e}"));
                        }
                        Some(b'\\') => {
                            *pos += 1;
                            match b.get(*pos) {
                                Some(b'"') => raw.push(b'"'),
                                Some(b'\\') => raw.push(b'\\'),
                                Some(b'n') => raw.push(b'\n'),
                                Some(b't') => raw.push(b'\t'),
                                Some(b'r') => raw.push(b'\r'),
                                Some(b'u') => {
                                    let hex = b
                                        .get(*pos + 1..*pos + 5)
                                        .and_then(|h| std::str::from_utf8(h).ok())
                                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                                        .and_then(char::from_u32)
                                        .ok_or_else(|| {
                                            format!("bad \\u escape at byte {pos}")
                                        })?;
                                    let mut buf = [0u8; 4];
                                    raw.extend_from_slice(hex.encode_utf8(&mut buf).as_bytes());
                                    *pos += 4;
                                }
                                other => return Err(format!("bad escape {other:?}")),
                            }
                            *pos += 1;
                        }
                        Some(&c) => {
                            raw.push(c);
                            *pos += 1;
                        }
                        None => return Err("unterminated string".to_owned()),
                    }
                }
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = *pos;
                while b
                    .get(*pos)
                    .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    *pos += 1;
                }
                std::str::from_utf8(&b[start..*pos])
                    .map_err(|e| e.to_string())?
                    .parse::<f64>()
                    .map(Json::Number)
                    .map_err(|e| format!("bad number at byte {start}: {e}"))
            }
            other => Err(format!("unexpected {other:?} at byte {pos}")),
        }
    }

    fn as_object(&self) -> Result<&[(String, Json)], String> {
        match self {
            Json::Object(fields) => Ok(fields),
            other => Err(format!("expected object, got {other:?}")),
        }
    }

    fn as_array(&self) -> Result<&[Json], String> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(format!("expected array, got {other:?}")),
        }
    }

    fn as_str(&self) -> Result<&str, String> {
        match self {
            Json::String(s) => Ok(s),
            other => Err(format!("expected string, got {other:?}")),
        }
    }

    fn as_f64(&self) -> Result<f64, String> {
        match self {
            Json::Number(x) => Ok(*x),
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    fn as_u64(&self) -> Result<u64, String> {
        let x = self.as_f64()?;
        if x < 0.0 || x.fract() != 0.0 || x > 2f64.powi(53) {
            return Err(format!("expected unsigned integer, got {x}"));
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        Ok(x as u64)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while b.get(*pos).is_some_and(u8::is_ascii_whitespace) {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {pos}", want as char))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CpsSnapshot {
        CpsSnapshot {
            pulses: 8,
            baseline: Some(SnapshotSection {
                label: "pre-optimization \"seed\" engine".to_owned(),
                rows: vec![SnapshotRow {
                    n: 4,
                    wall_clock_us: 103.5,
                    events_processed: 1234,
                    messages_delivered: 567,
                }],
            }),
            current: None,
            queue: None,
            sharded: None,
            runtime: None,
            recovery: None,
        }
    }

    fn sample_runtime_section() -> RuntimeSection {
        RuntimeSection {
            label: "reactor vs threads".to_owned(),
            rows: vec![RuntimeRow {
                n: 512,
                core: 32,
                silent: 0,
                workers: 0,
                run_secs: 4.0,
                reactor_pulses: 4,
                reactor_msgs_per_sec: 123_456.7,
                threads_attempted: 1,
                threads_pulses: 3,
                threads_msgs_per_sec: 98_765.4,
                threads_violations: 64,
                violations: 0,
            }],
        }
    }

    fn sample_recovery_section() -> RecoverySection {
        RecoverySection {
            label: "crash-and-rejoin on the simulator".to_owned(),
            rows: vec![RecoveryRow {
                n: 8,
                crashes: 3,
                resyncs: 3,
                max_resync_ms: 157.135,
                mean_resync_ms: 96.204,
                bound_ms: 612.5,
                violations: 0,
            }],
        }
    }

    #[test]
    fn json_roundtrip_with_recovery_section() {
        let mut snap = sample();
        snap.recovery = Some(sample_recovery_section());
        assert_eq!(from_json(&to_json(&snap)).unwrap(), snap);
    }

    #[test]
    fn json_roundtrip_with_runtime_section() {
        let mut snap = sample();
        snap.runtime = Some(sample_runtime_section());
        assert_eq!(from_json(&to_json(&snap)).unwrap(), snap);
    }

    #[test]
    fn json_roundtrip() {
        let snap = sample();
        let text = to_json(&snap);
        let back = from_json(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn json_roundtrip_with_queue_section() {
        let mut snap = sample();
        snap.queue = Some(QueueSection {
            label: "ladder-queue engine".to_owned(),
            rows: vec![QueueRow {
                n: 16,
                wall_clock_us: 834.145,
                events_processed: 10845,
                messages_delivered: 10080,
                spill_count: 0,
            }],
        });
        assert_eq!(from_json(&to_json(&snap)).unwrap(), snap);
    }

    #[test]
    fn json_roundtrip_with_all_sections() {
        let mut snap = sample();
        snap.current = snap.baseline.clone();
        snap.queue = Some(QueueSection {
            label: "q".to_owned(),
            rows: vec![QueueRow {
                n: 4,
                wall_clock_us: 1.0,
                events_processed: 2,
                messages_delivered: 3,
                spill_count: 4,
            }],
        });
        snap.sharded = Some(ShardedSection {
            label: "s".to_owned(),
            rows: vec![ShardedRow {
                n: 64,
                lanes: 8,
                wall_clock_single_us: 1.0,
                wall_clock_sharded_us: 2.0,
                events_processed: 5,
                messages_delivered: 6,
            }],
        });
        snap.runtime = Some(sample_runtime_section());
        snap.recovery = Some(sample_recovery_section());
        assert_eq!(from_json(&to_json(&snap)).unwrap(), snap);
    }

    #[test]
    fn json_roundtrip_with_sharded_section() {
        let mut snap = sample();
        snap.sharded = Some(ShardedSection {
            label: "lanes=8 scoped-thread executor".to_owned(),
            rows: vec![ShardedRow {
                n: 64,
                lanes: 8,
                wall_clock_single_us: 30000.0,
                wall_clock_sharded_us: 15000.5,
                events_processed: 123_456,
                messages_delivered: 100_000,
            }],
        });
        assert_eq!(from_json(&to_json(&snap)).unwrap(), snap);
    }

    #[test]
    fn roundtrip_with_both_sections() {
        let mut snap = sample();
        snap.current = Some(SnapshotSection {
            label: "slab engine".to_owned(),
            rows: vec![
                SnapshotRow {
                    n: 4,
                    wall_clock_us: 51.75,
                    events_processed: 1234,
                    messages_delivered: 567,
                },
                SnapshotRow {
                    n: 8,
                    wall_clock_us: 200.0,
                    events_processed: 9999,
                    messages_delivered: 8888,
                },
            ],
        });
        assert_eq!(from_json(&to_json(&snap)).unwrap(), snap);
    }

    #[test]
    fn roundtrips_non_ascii_and_control_labels() {
        let mut snap = sample();
        snap.baseline.as_mut().unwrap().label = "2× faster, μs timings\twith\u{1}ctl".to_owned();
        assert_eq!(from_json(&to_json(&snap)).unwrap(), snap);
    }

    #[test]
    fn rejects_wrong_schema() {
        let text = to_json(&sample()).replace(SCHEMA, "other/v9");
        assert!(from_json(&text).unwrap_err().contains("unsupported schema"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_json("{").is_err());
        assert!(from_json("{}").is_err());
        assert!(from_json("[1, 2").is_err());
        assert!(from_json("{\"schema\": \"crusader-bench-cps/v1\"} x").is_err());
    }

    #[test]
    fn measure_is_deterministic_in_counts() {
        // Tiny measurement (reps=1) twice: counts must agree exactly.
        let a = measure_cps(1);
        let b = measure_cps(1);
        let counts = |rows: &[SnapshotRow]| {
            rows.iter()
                .map(|r| (r.n, r.events_processed, r.messages_delivered))
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(&a), counts(&b));
    }
}
