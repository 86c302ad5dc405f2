//! Run configuration, backend dispatch, and report assembly.

use std::collections::BTreeSet;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

use crossbeam::channel;
use crusader_crypto::{KeyRing, NodeId};
use crusader_sim::{Automaton, ChaosTimeline, RunObserver, Trace};
use crusader_time::{Dur, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::clock::EmulatedClock;
use crate::net::{NetChaos, Network, NodeEvent};
use crate::node::{node_loop, NodeCore};
use crate::reactor;
use crate::supervise::{self, Counters, Heartbeats, SupervisionStats};

/// Which executor drives the node automatons.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// One OS thread per node (the original deployment path). Simple and
    /// latency-faithful, but the OS scheduler caps it at a few hundred
    /// nodes of useful scale.
    #[default]
    Threads,
    /// The event-driven worker-pool reactor: N node tasks multiplexed
    /// onto [`RuntimeConfig::workers`] long-lived threads with per-node
    /// inboxes and a hashed timer wheel — thousands of nodes on a
    /// handful of threads. See `crates/runtime/src/reactor.rs`.
    Reactor,
}

impl Backend {
    /// The stable CLI/JSON name of the backend.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Threads => "threads",
            Backend::Reactor => "reactor",
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "threads" => Ok(Backend::Threads),
            "reactor" => Ok(Backend::Reactor),
            other => Err(format!(
                "unknown backend {other:?} (want 'threads' or 'reactor')"
            )),
        }
    }
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
    /// deduplicated before use — a repeated index must not desynchronize
    /// the startup barrier or the active-node count).
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
    /// Which executor runs the nodes ([`Backend::Threads`] by default).
    pub backend: Backend,
    /// Worker threads for the [`Backend::Reactor`] executor; `None`
    /// means `available_parallelism()`. Ignored by the thread backend.
    pub workers: Option<usize>,
    /// Chaos fault timeline replayed against the run: link cuts, delay
    /// storms and flood windows are enforced by the network thread;
    /// crash windows freeze/thaw the node cores at the scheduled
    /// scenario times (measured from the run epoch). `None` (the
    /// default) injects nothing.
    pub chaos: Option<Arc<ChaosTimeline>>,
    /// Continuous run observer: sees every pulse and violation as it
    /// happens, on whichever backend thread produced it (implementations
    /// are `Sync` and use interior mutability). `None` by default.
    pub observer: Option<Arc<dyn RunObserver>>,
}

impl RuntimeConfig {
    /// A config with everything defaulted except the system size:
    /// fault-free, 5 ms/2 ms WAN-ish link, θ = 1.01, 500 ms run, thread
    /// backend. Meant to be customized by struct update syntax.
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
            backend: Backend::Threads,
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
    /// Supervision outcome: contained panics, worker respawns, detected
    /// stalls, network retry/drop counts and the degradation flag.
    pub supervision: SupervisionStats,
}

/// What a backend returns to the harness: everything still in host-time
/// terms, converted to a [`Trace`] once, outside any lock.
pub(crate) struct BackendRun {
    pub epoch: Instant,
    pub pulse_log: Vec<Vec<(u64, Instant)>>,
    pub violations: Vec<String>,
    pub messages_delivered: u64,
    /// Sends the network thread discarded on chaos link cuts.
    pub chaos_dropped: u64,
    /// Fault accounting from the supervision layer.
    pub supervision: SupervisionStats,
}

/// Runs `make_node`-built automatons under real threads, real (injected)
/// delays and real ed25519 signatures, on the configured [`Backend`].
///
/// The same [`Automaton`] code that runs in the simulator runs here —
/// `CpsNode`, `LwNode`, `EchoSyncNode`, or yours — and the same protocol
/// driver (`NodeCore`, `src/node.rs`) runs under both backends, so the
/// two differ only in scheduling.
///
/// # Panics
///
/// Panics if thread spawning fails or if `n == 0`. An automaton handler
/// that panics on a backend thread is *contained*: the panic is counted
/// on [`RuntimeReport::supervision`], recorded as a violation against
/// the node, and the run keeps going (on the reactor, the worker that
/// carried it is respawned).
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
    // Dedupe and bound the silent set once: a duplicated index in
    // `cfg.silent` must count one node, not two (a repeat used to
    // desynchronize the startup barrier and hang the run).
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
    let run = match cfg.backend {
        Backend::Threads => run_threads(cfg, &silent, &ring, &mut rng, make_node),
        Backend::Reactor => reactor::run(cfg, &silent, &ring, &mut rng, make_node),
    };

    // Convert to the simulator's trace for metric reuse. The backends
    // surrendered ownership of their logs, so this clones nothing and
    // holds no lock.
    let BackendRun {
        epoch,
        pulse_log,
        mut violations,
        messages_delivered,
        chaos_dropped,
        supervision,
    } = run;
    let mut trace = Trace::default();
    trace.pulses = pulse_log
        .into_iter()
        .map(|mut pulses| {
            pulses.sort_by_key(|(idx, _)| *idx);
            pulses
                .into_iter()
                .map(|(_, at)| {
                    Time::from_secs(at.saturating_duration_since(epoch).as_secs_f64())
                })
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

/// The original thread-per-node backend.
fn run_threads<A, F>(
    cfg: &RuntimeConfig,
    silent: &[usize],
    ring: &KeyRing,
    rng: &mut SmallRng,
    mut make_node: F,
) -> BackendRun
where
    A: Automaton,
    F: FnMut(NodeId) -> A,
{
    // The epoch is anchored only after every node thread is running and
    // parked at the barrier; otherwise a slow-spawning thread would start
    // rounds late and look like a node with an out-of-model clock.
    let active = cfg.n - silent.len();
    let barrier = Arc::new(Barrier::new(active + 1));
    let epoch_cell: Arc<OnceLock<Instant>> = Arc::new(OnceLock::new());
    let counters = Arc::new(Counters::new(cfg.n));
    let heartbeats = Arc::new(Heartbeats::new(cfg.n, Instant::now()));
    let stop = Arc::new(AtomicBool::new(false));
    // Watchdog with a no-op nudge: a node here is an OS thread the
    // kernel wakes itself, so a stall is only counted (and degrades the
    // run), not rescheduled.
    let watchdog = supervise::spawn_watchdog(
        Arc::clone(&heartbeats),
        Arc::clone(&counters),
        supervise::stall_threshold(cfg.d),
        Arc::clone(&stop),
        |_| {},
    );

    let mut inbox_txs: Vec<Option<channel::Sender<NodeEvent<A::Msg>>>> = Vec::with_capacity(cfg.n);
    let mut inbox_rxs = Vec::with_capacity(cfg.n);
    // Probe clones of the inbox receivers: after everything is joined,
    // whatever is left unread in an inbox is counted as discarded so
    // shutdown races never silently lose accounting.
    let mut probe_rxs: Vec<Option<channel::Receiver<NodeEvent<A::Msg>>>> =
        Vec::with_capacity(cfg.n);
    for i in 0..cfg.n {
        if silent.binary_search(&i).is_ok() {
            inbox_txs.push(None);
            inbox_rxs.push(None);
            probe_rxs.push(None);
        } else {
            let (tx, rx) = channel::unbounded::<NodeEvent<A::Msg>>();
            inbox_txs.push(Some(tx));
            probe_rxs.push(Some(rx.clone()));
            inbox_rxs.push(Some(rx));
        }
    }
    // A plain closure, so the network's `deliver_batch` falls back to
    // one channel send per event: each node blocks on its own inbox
    // channel, and a channel takes one message at a time.
    let net_sink = {
        let txs = inbox_txs.clone();
        let counters = Arc::clone(&counters);
        move |to: NodeId, event: NodeEvent<A::Msg>| {
            // Silent nodes crashed at start: their messages are dropped
            // rather than buffered unread. A closed inbox means that node
            // already shut down; also fine.
            if let Some(tx) = &txs[to.index()] {
                let _ = tx.send(event);
                counters.note_inbox_handoff();
            }
        }
    };
    let net_chaos = cfg.chaos.as_ref().map(|timeline| NetChaos {
        timeline: Arc::clone(timeline),
        epoch: Arc::clone(&epoch_cell),
    });
    let network = Network::spawn(
        net_sink,
        cfg.n,
        cfg.d,
        cfg.u,
        cfg.seed,
        net_chaos,
        Arc::clone(&counters),
    );

    let verifier = ring.verifier();
    let mut handles = Vec::new();
    for (i, inbox_slot) in inbox_rxs.iter_mut().enumerate() {
        let me = NodeId::new(i);
        let Some(inbox) = inbox_slot.take() else {
            continue; // silent
        };
        let rate = 1.0 + rng.gen::<f64>() * (cfg.theta - 1.0);
        let offset = cfg.max_offset * rng.gen::<f64>();
        let automaton = make_node(me);
        let net = network.link.clone();
        let signer = ring.signer(me);
        let verifier = Arc::clone(&verifier);
        let n = cfg.n;
        let barrier = Arc::clone(&barrier);
        let epoch_cell = Arc::clone(&epoch_cell);
        let observer = cfg.observer.clone();
        let counters = Arc::clone(&counters);
        let heartbeats = Arc::clone(&heartbeats);
        handles.push((
            i,
            std::thread::Builder::new()
                .name(format!("crusader-{me}"))
                .spawn(move || {
                    barrier.wait();
                    let epoch = *epoch_cell.wait();
                    let clock = EmulatedClock::new(epoch, offset, rate);
                    let mut core = NodeCore::new(automaton, me, n, clock, signer, verifier);
                    if let Some(obs) = observer {
                        core.set_observer(obs, epoch);
                    }
                    node_loop(core, &inbox, &net, &counters, &heartbeats)
                })
                .expect("spawn node thread"),
        ));
    }

    barrier.wait();
    let epoch = Instant::now() + Duration::from_millis(5);
    epoch_cell.set(epoch).expect("epoch set once");
    std::thread::sleep(cfg.run_for);
    for tx in inbox_txs.iter().flatten() {
        let _ = tx.send(NodeEvent::Shutdown);
    }
    let mut pulse_log = vec![Vec::new(); cfg.n];
    let mut violations = Vec::new();
    for (i, handle) in handles {
        match handle.join() {
            Ok(core) => {
                let (pulses, viols) = core.into_results();
                pulse_log[i] = pulses;
                violations.extend(viols);
            }
            Err(payload) => {
                // Handler panics are contained inside `node_loop`, so a
                // dead node thread is an infrastructure fault. Log it,
                // count it, keep the run's results.
                counters.note_panic();
                counters.note_fault_budget();
                let msg = supervise::panic_message(&*payload);
                violations.push(format!("{}: node thread died: {msg}", NodeId::new(i)));
            }
        }
    }
    let (messages_delivered, chaos_dropped) = network.shutdown();
    stop.store(true, Ordering::Release);
    let _ = watchdog.join();
    // Count events no node ever read (deliveries that raced shutdown).
    for probe in probe_rxs.iter().flatten() {
        let mut leftover = 0u64;
        while probe.try_recv().is_ok() {
            leftover += 1;
        }
        counters.note_discarded(leftover);
    }
    BackendRun {
        epoch,
        pulse_log,
        violations,
        messages_delivered,
        chaos_dropped,
        supervision: counters.snapshot(),
    }
}
