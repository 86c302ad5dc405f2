//! `rt_mesh` and `rt_relay`: closed loops on the wall-clock runtime's
//! reactor backend.
//!
//! `rt_mesh` is a CPS full mesh whose protocol sets the pace; `rt_relay`
//! is a benchmark-owned unsigned token relay that saturates the net
//! thread, the inboxes, the reactor and the timer wheel and leaves `core`
//! and `crypto` idle.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crusader_core::{CpsNode, Derived, Params};
use crusader_crypto::{CarriesSignatures, KeyRing, NodeId};
use crusader_runtime::{Backend, RuntimeConfig, RuntimeReport, SupervisionStats};
use crusader_sim::metrics::{pulse_stats, PulseStats};
use crusader_sim::{Automaton, Context, TimerId};
use crusader_time::{Dur, LocalTime};

use super::sim_cps::steady_skews;
use super::{fill_traced, nproc, write_spans, Host, Outcome};
use crate::procfs::cpu_seconds;
use crate::span::Collector;
use crate::stats::{median, Histogram};
use crate::traced::Traced;

/// Short runs that only sample set-up and tear-down time. Their lengths
/// are staggered in steps of 2 ms over [`STAGGER`]: `run()` returns up to one
/// watchdog poll (50 ms) after `run_for`, depending on where in the poll
/// interval the run stops, and equal lengths would sample one phase only.
/// The measured run's own set-up is left out for the same reason: its
/// phase is anyone's guess.
const SETUP_PROBES: u32 = 25;
const SETUP_PROBE_RUN: Duration = Duration::from_millis(40);
const STAGGER: Duration = Duration::from_millis(50);

/// The measured part of a run is this many `run()`s one after the other,
/// so that the CPU cost has a cheaper run to be taken from. No more than
/// two: at 20 s, each still has `rt_mesh` pulse eight times, three rounds
/// past the convergence its skew statistic skips.
const SUB_RUNS: usize = 2;
/// No run is shorter than this: `rt_mesh`'s first messages arrive 400 ms in
/// (a wait of `S`, then a flight of 140 to 200 ms), and a `--smoke` pass
/// would otherwise ask for runs of an eighth of a second.
const MIN_RUN: Duration = Duration::from_millis(600);

/// Reactor workers: one core is left to the net and timer threads, so
/// busy threads do not exceed the cores.
pub fn workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

/// One timed `crusader_runtime::run`.
pub struct Timed {
    pub report: RuntimeReport,
    pub run_for: f64,
    /// Wall time of `run()` beyond `run_for`: spawning, key generation,
    /// the start barrier, shutdown and joins.
    pub setup_s: f64,
    pub cpu_s: f64,
}

pub fn timed<A: Automaton>(cfg: &RuntimeConfig, make: impl FnMut(NodeId) -> A) -> Timed {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let report = crusader_runtime::run(cfg, make);
    let wall = t0.elapsed().as_secs_f64();
    let run_for = cfg.run_for.as_secs_f64();
    Timed {
        report,
        run_for,
        setup_s: wall - run_for,
        cpu_s: cpu_seconds() - cpu0,
    }
}

impl Timed {
    /// Whether the run did anything the correctness gate counts against it.
    fn failed(&self) -> bool {
        let r = &self.report;
        !r.trace.violations.is_empty()
            || r.supervision.degraded
            || r.supervision.net_sends_failed > 0
            || r.messages_delivered == 0
    }
}

/// A host freeze this long voids a failed run. The recording host freezes
/// every virtual CPU for 50 to 75 ms a few times a minute and for 100 to
/// 400 ms every minute or two. Both workloads are sized to ride that out,
/// and ninety `rt_mesh` runs in a row did; one run in about 130 lost a
/// round on every node all the same, from a cause no later run reproduced.
/// A failure next to a freeze longer than the routine ones is put down to
/// the host and the run made again; a failure on a quiet host is the
/// code's.
const HOST_FREEZE: Duration = Duration::from_millis(100);
/// Voided runs made again, at most, per run of a workload.
const MAX_RERUNS: u32 = 2;

/// Watches the host while runs are measured: a thread that sleeps
/// [`HostWatch::NAP`] at a time and keeps the longest it overslept by. The
/// host's freezes hold every virtual CPU at once (three processes watching
/// side by side saw the same 396.1 ms), so one sleeper sees them all. It
/// wakes 50 times a second, which is noise beside what a workload costs.
struct HostWatch {
    stop: Arc<AtomicBool>,
    worst_ns: Arc<AtomicU64>,
    thread: Option<std::thread::JoinHandle<()>>,
    /// Runs a freeze voided and that were made again.
    reruns: u32,
    /// The longest freeze during a run that was kept.
    worst_kept: Duration,
}

impl HostWatch {
    const NAP: Duration = Duration::from_millis(20);

    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let worst_ns = Arc::new(AtomicU64::new(0));
        let (stopped, worst) = (Arc::clone(&stop), Arc::clone(&worst_ns));
        // `Relaxed` throughout: the flag and the maximum publish nothing
        // but themselves.
        let thread = std::thread::spawn(move || {
            while !stopped.load(Ordering::Relaxed) {
                let t = Instant::now();
                std::thread::sleep(Self::NAP);
                let over = t.elapsed().saturating_sub(Self::NAP);
                worst.fetch_max(over.as_nanos() as u64, Ordering::Relaxed);
            }
        });
        HostWatch {
            stop,
            worst_ns,
            thread: Some(thread),
            reruns: 0,
            worst_kept: Duration::ZERO,
        }
    }

    /// Makes `attempt` again while it yields a run that failed on a host
    /// that froze for [`HOST_FREEZE`] or longer meanwhile, up to
    /// [`MAX_RERUNS`] times per watch. A run that fails with no freeze seen
    /// is the code's failure and is returned as it is; so is the last one
    /// when the reruns are used up.
    fn undisturbed<T>(&mut self, mut attempt: impl FnMut() -> (Timed, T)) -> (Timed, T) {
        loop {
            self.worst_ns.store(0, Ordering::Relaxed);
            let (run, with) = attempt();
            let froze = Duration::from_nanos(self.worst_ns.load(Ordering::Relaxed));
            if run.failed() && froze >= HOST_FREEZE && self.reruns < MAX_RERUNS {
                self.reruns += 1;
                println!(
                    "  a run failed while the host froze for {} ms: void, made again",
                    froze.as_millis()
                );
                continue;
            }
            self.worst_kept = self.worst_kept.max(froze);
            return (run, with);
        }
    }
}

impl Drop for HostWatch {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            // The thread only sleeps and compares; it has nothing to
            // panic on, and `drop` must not.
            let _ = thread.join();
        }
    }
}

fn probe_run_for(k: u32) -> Duration {
    SETUP_PROBE_RUN + STAGGER * k / SETUP_PROBES
}

/// Set-up samples from a few short runs of `cfg`.
fn setup_probes<A: Automaton>(cfg: &RuntimeConfig, mut make: impl FnMut(NodeId) -> A) -> Vec<f64> {
    (0..SETUP_PROBES)
        .map(|k| {
            let probe = RuntimeConfig {
                run_for: probe_run_for(k),
                ..cfg.clone()
            };
            timed(&probe, &mut make).setup_s
        })
        .collect()
}

/// The measured part: what the probes left of `seconds`, split into
/// [`SUB_RUNS`] runs one after the other. `run_one` makes one run of the
/// length it is given, and is made again when a host freeze voided it (see
/// [`HostWatch::undisturbed`]); what it returns beside the run is kept with
/// it.
fn measured_runs<T>(
    out: &mut Outcome,
    seconds: f64,
    setup: &[f64],
    mut run_one: impl FnMut(Duration) -> (Timed, T),
) -> (Vec<Timed>, Vec<T>) {
    let probes: Duration = (0..SETUP_PROBES).map(probe_run_for).sum();
    let spent = probes.as_secs_f64() + setup.iter().sum::<f64>();
    let each = Duration::from_secs_f64((seconds - spent).max(seconds / 2.0) / SUB_RUNS as f64);
    let each = each.max(MIN_RUN);
    let mut host = HostWatch::start();
    let runs = (0..SUB_RUNS)
        .map(|_| host.undisturbed(|| run_one(each)))
        .unzip();
    out.set("benchmark.host_freeze_reruns", f64::from(host.reruns));
    out.set(
        "benchmark.host_freeze_ms",
        host.worst_kept.as_secs_f64() * 1e3,
    );
    runs
}

/// Fills the end-to-end metrics and the supervision counters from the
/// measured runs, and counts their ops: one per send, failed ones being
/// the sends the net gave up on and the violations, and every one of a run
/// that degraded. Returns each run's pulse statistics over `honest`.
///
/// The rates are medians over the runs. `cpu_us_per_msg` is the cheapest
/// run's: the host's slow episodes last tens of seconds and add a third to
/// the CPU a message costs, which made the whole-run figure bimodal across
/// runs.
fn account(out: &mut Outcome, runs: &[Timed], u: Dur, honest: &[NodeId]) -> Vec<PulseStats> {
    let (mut msgs, mut events, mut cpu, mut stats) = (vec![], vec![], vec![], vec![]);
    let mut sup = SupervisionStats::default();
    for run in runs {
        let r = &run.report;
        let delivered = r.messages_delivered;
        let ops = delivered + r.supervision.net_sends_failed;
        out.ops += ops;
        for v in &r.trace.violations {
            out.fail(format!("violation: {v}"));
        }
        if r.supervision.net_sends_failed > 0 {
            out.failed += r.supervision.net_sends_failed;
            out.failures.push(format!(
                "the net gave up on {} sends",
                r.supervision.net_sends_failed
            ));
        }
        if r.supervision.degraded {
            out.failed += ops;
            out.failures.push("the run degraded".to_owned());
        }
        if delivered == 0 {
            out.op(Err("nothing was delivered".to_owned()));
        }
        let pulses: usize = r.trace.pulses.iter().map(Vec::len).sum();
        msgs.push(delivered as f64 / run.run_for);
        events.push((delivered + pulses as u64) as f64 / run.run_for);
        cpu.push(run.cpu_s * 1e6 / delivered.max(1) as f64);
        stats.push(pulse_stats(&r.trace, honest));
        sup.net_retries += r.supervision.net_retries;
        sup.net_sends_failed += r.supervision.net_sends_failed;
        sup.events_discarded += r.supervision.events_discarded;
        sup.stalls_detected += r.supervision.stalls_detected;
        sup.worker_panics += r.supervision.worker_panics;
    }
    out.failed = out.failed.min(out.ops);
    out.set_median("msgs_per_s", msgs);
    out.set_median("events_per_s", events);
    out.set_best("cpu_us_per_msg", cpu, false);
    let steady: Vec<f64> = stats.iter().flat_map(|s| steady_skews(s, u)).collect();
    out.set(
        "skew_p50_over_u",
        if steady.is_empty() {
            0.0
        } else {
            median(&steady)
        },
    );
    out.set("runtime.net_retries", sup.net_retries as f64);
    out.set("runtime.net_sends_failed", sup.net_sends_failed as f64);
    out.set("runtime.events_discarded", sup.events_discarded as f64);
    out.set("runtime.stalls_detected", sup.stalls_detected as f64);
    out.set("runtime.worker_panics", sup.worker_panics as f64);
    stats
}

/// Fills the traced per-layer metrics of a runtime workload. The total is
/// the CPU the process used over `run()`.
fn reduce_traced(out: &mut Outcome, collector: &Collector, run: &Timed) {
    let delivered = run.report.messages_delivered;
    fill_traced(out, collector, run.cpu_s, delivered, Host::Runtime);
    out.set(
        "traced_cpu_us_per_msg",
        run.cpu_s * 1e6 / delivered.max(1) as f64,
    );
}

// ---------------------------------------------------------------- rt_mesh

pub const MESH_N: usize = 40;

/// `rt_mesh`: fault-free CPS full mesh, n = 40, d = 200 ms, u = 60 ms,
/// ϑ = 1.01, clocks starting within `S` of each other. The delays are this
/// long so that a host stall of a quarter of a second costs no round, and
/// the mesh this large so that a round's deliveries come faster than the
/// worker parks (README, *Workloads*).
pub struct Mesh {
    pub params: Params,
    pub derived: Derived,
    pub cfg: RuntimeConfig,
}

impl Mesh {
    pub fn new(seed: u64) -> Self {
        let params = Params::max_resilience(
            MESH_N,
            Dur::from_millis(200.0),
            Dur::from_millis(60.0),
            1.01,
        );
        let derived = params.derive().expect("the deployment is feasible");
        Mesh {
            params,
            derived,
            cfg: RuntimeConfig {
                d: params.d,
                u: params.u,
                theta: params.theta,
                max_offset: derived.s,
                seed,
                backend: Backend::Reactor,
                workers: Some(workers()),
                ..RuntimeConfig::new(MESH_N)
            },
        }
    }

    fn node(&self, me: NodeId) -> CpsNode {
        CpsNode::new(me, self.params, self.derived)
    }

    fn honest() -> Vec<NodeId> {
        NodeId::all(MESH_N).collect()
    }
}

pub fn run_mesh(seed: u64, seconds: f64) -> Outcome {
    let mesh = Mesh::new(seed);
    let mut out = Outcome::default();
    let setup = setup_probes(&mesh.cfg, |me| mesh.node(me));
    let (runs, _) = measured_runs(&mut out, seconds, &setup, |run_for| {
        let cfg = RuntimeConfig {
            run_for,
            ..mesh.cfg.clone()
        };
        (timed(&cfg, |me| mesh.node(me)), ())
    });
    let stats = account(&mut out, &runs, mesh.params.u, &Mesh::honest());
    let max_skew = stats.iter().map(|s| s.max_skew).max().expect("some run");
    out.set(
        "skew_max_over_bound",
        max_skew.as_secs() / mesh.derived.s.as_secs(),
    );
    out.set_median("setup_s", setup);
    out
}

pub fn run_mesh_traced(seed: u64, seconds: f64, span_file: &std::path::Path) -> Outcome {
    let mesh = Mesh::new(seed);
    let ring = KeyRing::ed25519(MESH_N, seed);
    let cfg = RuntimeConfig {
        run_for: Duration::from_secs_f64(seconds).max(MIN_RUN),
        ..mesh.cfg.clone()
    };
    let (run, collector) = HostWatch::start().undisturbed(|| {
        let collector = Collector::new();
        let run = timed(&cfg, |me| Traced::new(mesh.node(me), me, &ring, &collector));
        (run, collector)
    });
    let mut out = Outcome::default();
    let runs = [run];
    account(&mut out, &runs, mesh.params.u, &Mesh::honest());
    reduce_traced(&mut out, &collector, &runs[0]);
    write_spans(&mut out, &collector, span_file);
    out
}

// --------------------------------------------------------------- rt_relay

pub const RELAY_N: usize = 64;
/// Tokens each node injects; `RELAY_N` times this many are in flight.
const TOKENS_PER_NODE: usize = 1024;
const TICK_MS: f64 = 5.0;
/// Local time of the first tick: late enough that every node has been
/// initialized by then, so tick `k` is the same instant on every node. One
/// worker hands 65 536 tokens to the net before the last node is up, which
/// took more than 100 ms with the handlers traced.
const FIRST_TICK_MS: f64 = 1000.0;

/// An unsigned token; it carries the instant it was handed to `ctx.send`.
#[derive(Clone, Debug)]
pub struct Token {
    sent: Instant,
}

impl CarriesSignatures for Token {}

/// What the relays of one run fill together.
pub struct RelayStats {
    /// Handler entry minus the token's send instant, ns. Includes the
    /// injected link delay.
    pub hop_ns: Histogram,
    /// `ctx.local_time()` at a tick's fire minus its armed deadline, ns.
    pub timer_lag_ns: Histogram,
}

impl RelayStats {
    pub fn new() -> Arc<Self> {
        Arc::new(RelayStats {
            hop_ns: Histogram::new(),
            timer_lag_ns: Histogram::new(),
        })
    }
}

/// Forwards every token it receives to a pseudo-randomly chosen peer, and
/// pulses on a 5 ms periodic timer.
pub struct Relay {
    n: usize,
    /// xorshift64 state choosing the next hop; seeded per node.
    rng: u64,
    next_tick: LocalTime,
    tick_no: u64,
    stats: Arc<RelayStats>,
}

impl Relay {
    pub fn new(me: NodeId, n: usize, seed: u64, stats: &Arc<RelayStats>) -> Self {
        Relay {
            n,
            rng: (seed ^ 0x9e37_79b9_7f4a_7c15).wrapping_mul(2 * me.index() as u64 + 1) | 1,
            next_tick: LocalTime::from_millis(FIRST_TICK_MS),
            tick_no: 0,
            stats: Arc::clone(stats),
        }
    }

    /// A peer other than `me`, uniformly.
    fn pick(&mut self, me: NodeId) -> NodeId {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let hop = 1 + (self.rng >> 33) as usize % (self.n - 1);
        NodeId::new((me.index() + hop) % self.n)
    }

    fn forward(&mut self, ctx: &mut dyn Context<Token>) {
        let to = self.pick(ctx.me());
        ctx.send(
            to,
            Token {
                sent: Instant::now(),
            },
        );
    }
}

impl Automaton for Relay {
    type Msg = Token;

    fn on_init(&mut self, ctx: &mut dyn Context<Token>) {
        if ctx.local_time() >= self.next_tick {
            ctx.mark_violation("initialized after the first tick was due".to_owned());
        }
        for _ in 0..TOKENS_PER_NODE {
            self.forward(ctx);
        }
        ctx.set_timer_at(self.next_tick);
    }

    fn on_message(&mut self, _from: NodeId, msg: Token, ctx: &mut dyn Context<Token>) {
        self.stats
            .hop_ns
            .record(msg.sent.elapsed().as_nanos() as u64);
        self.forward(ctx);
    }

    fn on_timer(&mut self, _timer: TimerId, ctx: &mut dyn Context<Token>) {
        let lag = ctx.local_time() - self.next_tick;
        self.stats
            .timer_lag_ns
            .record(lag.as_nanos().max(0.0) as u64);
        self.tick_no += 1;
        ctx.pulse(self.tick_no);
        self.next_tick += Dur::from_millis(TICK_MS);
        ctx.set_timer_at(self.next_tick);
    }
}

fn relay_cfg(seed: u64) -> RuntimeConfig {
    RuntimeConfig {
        d: Dur::from_millis(25.0),
        u: Dur::from_millis(1.0),
        // Rate 1 and offset 0 on every clock: tick `k` is due at the same
        // instant everywhere, and what the ticks' spread shows is lag.
        theta: 1.0,
        max_offset: Dur::ZERO,
        seed,
        backend: Backend::Reactor,
        workers: Some(workers()),
        ..RuntimeConfig::new(RELAY_N)
    }
}

/// Fills the hop and timer-lag percentiles over the measured runs.
fn relay_layer_metrics(out: &mut Outcome, runs: &[Arc<RelayStats>]) {
    let stats = RelayStats::new();
    for run in runs {
        stats.hop_ns.absorb(&run.hop_ns);
        stats.timer_lag_ns.absorb(&run.timer_lag_ns);
    }
    let us = |ns: u64| ns as f64 / 1e3;
    out.set("runtime.hop_p50_us", us(stats.hop_ns.percentile(50.0)));
    out.set("runtime.hop_p99_us", us(stats.hop_ns.percentile(99.0)));
    out.set("runtime.hop_p999_us", us(stats.hop_ns.percentile(99.9)));
    out.set(
        "runtime.timer_lag_p50_us",
        us(stats.timer_lag_ns.percentile(50.0)),
    );
    out.set(
        "runtime.timer_lag_p99_us",
        us(stats.timer_lag_ns.percentile(99.0)),
    );
}

pub fn run_relay(seed: u64, seconds: f64) -> Outcome {
    let cfg = relay_cfg(seed);
    let mut out = Outcome::default();
    // The probes fill stats of their own, so the measured run's
    // histograms hold only its own hops.
    let probe_stats = RelayStats::new();
    let setup = setup_probes(&cfg, |me| Relay::new(me, RELAY_N, seed, &probe_stats));
    let (runs, stats) = measured_runs(&mut out, seconds, &setup, |run_for| {
        let cfg = RuntimeConfig {
            run_for,
            ..cfg.clone()
        };
        let stats = RelayStats::new();
        let run = timed(&cfg, |me| Relay::new(me, RELAY_N, seed, &stats));
        (run, stats)
    });
    let honest: Vec<NodeId> = NodeId::all(RELAY_N).collect();
    account(&mut out, &runs, cfg.u, &honest);
    relay_layer_metrics(&mut out, &stats);
    out.set_median("setup_s", setup);
    out
}

pub fn run_relay_traced(seed: u64, seconds: f64, span_file: &std::path::Path) -> Outcome {
    let ring = KeyRing::ed25519(RELAY_N, seed);
    let cfg = RuntimeConfig {
        run_for: Duration::from_secs_f64(seconds).max(MIN_RUN),
        ..relay_cfg(seed)
    };
    let (run, collector) = HostWatch::start().undisturbed(|| {
        let collector = Collector::new();
        let stats = RelayStats::new();
        let run = timed(&cfg, |me| {
            Traced::new(Relay::new(me, RELAY_N, seed, &stats), me, &ring, &collector)
        });
        (run, collector)
    });
    let honest: Vec<NodeId> = NodeId::all(RELAY_N).collect();
    let mut out = Outcome::default();
    let runs = [run];
    account(&mut out, &runs, cfg.u, &honest);
    reduce_traced(&mut out, &collector, &runs[0]);
    // The handlers here are this crate's `Relay`, not `core`'s: their time
    // is the load generator's, and `core` did nothing.
    let relay_s = out.get("core.handler_self_s").unwrap_or(0.0);
    out.set("benchmark.relay_self_s", relay_s);
    for name in [
        "core.handler_calls",
        "core.handler_s",
        "core.handler_self_s",
    ] {
        out.set(name, 0.0);
    }
    write_spans(&mut out, &collector, span_file);
    out
}

/// `runtime.idle_cpu_share`: CPU seconds per wall second of a runtime
/// whose nodes never send and never arm a timer.
pub fn idle_cpu_share(run_for: Duration) -> f64 {
    struct Idle;
    impl Automaton for Idle {
        type Msg = Token;
        fn on_init(&mut self, _: &mut dyn Context<Token>) {}
        fn on_message(&mut self, _: NodeId, _: Token, _: &mut dyn Context<Token>) {}
        fn on_timer(&mut self, _: TimerId, _: &mut dyn Context<Token>) {}
    }
    let cfg = RuntimeConfig {
        n: 8,
        run_for,
        ..relay_cfg(0)
    };
    let run = timed(&cfg, |_| Idle);
    run.cpu_s / run_for.as_secs_f64()
}
