//! Run configuration and report assembly.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crusader_crypto::{KeyRing, NodeId};
use crusader_sim::{Automaton, ChaosTimeline, RunObserver, Trace};
use crusader_time::{Dur, Time};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::reactor;
use crate::supervise::SupervisionStats;

/// The executor that drives the node automatons. There is one, the
/// event-driven worker-pool reactor (`crates/runtime/src/reactor.rs`).
///
/// This enum and [`RuntimeConfig::backend`] are kept only because the
/// repo benchmark (`benchmark/src/workloads/rt.rs`) still names them;
/// both go once it stops (ROADMAP, item 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// N node tasks multiplexed onto [`RuntimeConfig::workers`]
    /// long-lived threads with per-node inboxes, woken from the network
    /// thread's one time queue.
    #[default]
    Reactor,
}

/// Configuration of a wall-clock run.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of nodes.
    pub n: usize,
    /// Nodes left unstarted (crash-from-start faults). For Byzantine
    /// experiments use the deterministic simulator, which can audit the
    /// adversary; the runtime is the deployment path.
    ///
    /// Duplicate and out-of-range indices are ignored (the set is
    /// deduplicated before use, so a repeated index counts one node).
    pub silent: Vec<usize>,
    /// Maximum injected link delay `d`.
    pub d: Dur,
    /// Injected delay uncertainty `u` (delays uniform in `[d − u, d]`).
    /// Host scheduling jitter adds to this in practice — size `u`
    /// accordingly (milliseconds, not microseconds, on a busy machine).
    pub u: Dur,
    /// Emulated clock-rate bound: rates drawn uniformly from `[1, θ]`.
    pub theta: f64,
    /// Emulated initial clock offsets drawn from `[0, max_offset]`.
    pub max_offset: Dur,
    /// How long (host time) to run before shutting down.
    pub run_for: Duration,
    /// RNG seed for delays, rates and offsets.
    pub seed: u64,
    /// Always [`Backend::Reactor`]; kept for the benchmark alone (see
    /// [`Backend`]).
    pub backend: Backend,
    /// Reactor worker threads; `None` means `available_parallelism()`.
    pub workers: Option<usize>,
    /// Chaos fault timeline replayed against the run: link cuts, delay
    /// storms and flood windows are enforced by the network thread;
    /// crash windows freeze/thaw the node cores at the scheduled
    /// scenario times (measured from the run epoch). `None` (the
    /// default) injects nothing.
    pub chaos: Option<Arc<ChaosTimeline>>,
    /// Continuous run observer: sees every pulse and violation as it
    /// happens, on whichever worker thread produced it (implementations
    /// are `Sync` and use interior mutability). `None` by default.
    pub observer: Option<Arc<dyn RunObserver>>,
}

impl RuntimeConfig {
    /// A config with everything defaulted except the system size:
    /// fault-free, 5 ms/2 ms WAN-ish link, θ = 1.01, 500 ms run, one
    /// reactor worker per available core. Meant to be customized by
    /// struct update syntax.
    #[must_use]
    pub fn new(n: usize) -> Self {
        RuntimeConfig {
            n,
            silent: Vec::new(),
            d: Dur::from_millis(5.0),
            u: Dur::from_millis(2.0),
            theta: 1.01,
            max_offset: Dur::from_millis(1.0),
            run_for: Duration::from_millis(500),
            seed: 0,
            backend: Backend::Reactor,
            workers: None,
            chaos: None,
            observer: None,
        }
    }
}

/// The result of a wall-clock run, convertible to the simulator's
/// [`Trace`] for reuse of the skew/period metrics.
#[derive(Clone, Debug)]
pub struct RuntimeReport {
    /// Pulse instants per node, as seconds since the harness epoch.
    pub trace: Trace,
    /// Messages the network thread delivered (broadcasts count once per
    /// destination, including destinations that crashed at start).
    pub messages_delivered: u64,
    /// Supervision outcome: contained panics, worker respawns, and the
    /// message path's command, hand-off and discard counts.
    pub supervision: SupervisionStats,
}

/// What the reactor returns to the harness: everything still in
/// host-time terms, converted to a [`Trace`] once, outside any lock.
pub(crate) struct ReactorRun {
    pub epoch: Instant,
    pub pulse_log: Vec<Vec<(u64, Instant)>>,
    pub violations: Vec<String>,
    pub messages_delivered: u64,
    /// Sends the network thread discarded on chaos link cuts.
    pub chaos_dropped: u64,
    /// Fault accounting from the supervision layer.
    pub supervision: SupervisionStats,
}

/// Runs `make_node`-built automatons on the reactor, under real threads,
/// real (injected) delays and `ed25519-dalek`-typed signatures (the
/// vendored keyed-hash MAC, not real Ed25519: `vendor/README.md`,
/// ROADMAP item 13).
///
/// The same [`Automaton`] code that runs in the simulator runs here —
/// `CpsNode`, `LwNode`, `EchoSyncNode`, or yours — driven by the same
/// per-node protocol core (`NodeCore`, `src/node.rs`).
///
/// # Panics
///
/// Panics if thread spawning fails, if `n == 0`, or if the network
/// thread panics. An automaton handler
/// that panics on a worker thread is *contained*: the panic is counted
/// on [`RuntimeReport::supervision`], recorded as a violation against
/// the node, the worker that carried it is respawned, and the run keeps
/// going.
pub fn run<A, F>(cfg: &RuntimeConfig, make_node: F) -> RuntimeReport
where
    A: Automaton,
    F: FnMut(NodeId) -> A,
{
    assert!(cfg.n > 0, "need at least one node");
    if let Some(chaos) = &cfg.chaos {
        assert_eq!(
            chaos.n(),
            cfg.n,
            "chaos timeline sized for a different system"
        );
    }
    // Dedupe, sort and bound the silent set once: a duplicated index in
    // `cfg.silent` must count one node, not two, and the reactor looks
    // nodes up in it by binary search.
    let silent: Vec<usize> = cfg
        .silent
        .iter()
        .copied()
        .filter(|&i| i < cfg.n)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let ring = KeyRing::ed25519(cfg.n, cfg.seed);
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0x0e0e_1111);
    let ReactorRun {
        epoch,
        pulse_log,
        mut violations,
        messages_delivered,
        chaos_dropped,
        supervision,
    } = reactor::run(cfg, &silent, &ring, &mut rng, make_node);

    // Convert to the simulator's trace for metric reuse. The reactor
    // surrendered ownership of its logs, so this clones nothing and
    // holds no lock.
    let mut trace = Trace::default();
    trace.pulses = pulse_log
        .into_iter()
        .map(|mut pulses| {
            pulses.sort_by_key(|(idx, _)| *idx);
            pulses
                .into_iter()
                .map(|(_, at)| Time::from_secs(at.saturating_duration_since(epoch).as_secs_f64()))
                .collect()
        })
        .collect();
    violations.sort();
    trace.violations = violations;
    trace.messages_delivered = messages_delivered;
    trace.chaos_drops = chaos_dropped;
    RuntimeReport {
        trace,
        messages_delivered,
        supervision,
    }
}
