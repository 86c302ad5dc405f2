//! Trace-hash regression test: a fixed-seed [`Scenario::run_cps`] must
//! produce *exactly* the same observable trace — pulse times bit-for-bit,
//! event and message counts, violation list — on every engine version.
//!
//! The expected hashes below were pinned on the pre-optimization engine
//! (PR 1 state, commit 8b298d3). Any engine refactor that changes them has
//! changed observable behaviour, not just speed, and must be treated as a
//! correctness regression (or consciously re-pinned with a justification).

use crusader_baselines::EchoSyncNode;
use crusader_bench::snapshot::cps_scenario;
use crusader_bench::{trace_hash, Scenario};
use crusader_chaos::{builtin_catalog_dir, run_scenario, Catalog, Executor};
use crusader_core::adversary::{RushingForwarder, StaggeredDealer};
use crusader_core::{Carry, CpsNode, Params};
use crusader_lowerbound::{TriConfig, TriSim, TriTrace};
use crusader_sim::{Adversary, DelayModel, SilentAdversary, SimBuilder, Trace};
use crusader_time::drift::DriftModel;
use crusader_time::{Dur, Time};

/// `(n, expected trace hash)` for the snapshot scenario at each size.
const PINNED: &[(usize, u64)] = &[
    (4, 0x1277e2210ec74e1f),
    (8, 0xeb28601f3439c630),
    (16, 0xc49491b40c2c1e51),
];

/// Trace hash of the n = 64 snapshot scenario — the run `benchmark/`'s
/// `sim_mesh` workload times — recorded at commit 8cd2032.
const PINNED_N64: u64 = 0x2c12ef20314847c8;

/// `(delay model, horizon in seconds, trace hash)` of [`horizon_run`],
/// recorded at commit 8cd2032. Both horizons fall in round 9's echo
/// burst. Under `MaxAlways` that burst's deliveries share one instant,
/// the horizon itself, so every one of them is in, and sequence numbers
/// alone order the deliveries to faulty nodes against the rest; under
/// `Random` the horizon splits the burst.
const PINNED_HORIZON: [(DelayModel, f64, u64); 2] = [
    (DelayModel::MaxAlways, 0.018_968_287_289_949_835, 0x1f341d33d2e3f3b1),
    (DelayModel::Random, 0.018_92, 0x7d1f6a8910a48e9d),
];

/// Trace hashes of the n = 8 snapshot scenario under the two active
/// adversaries of `crusader_core::adversary`, with adversary-chosen
/// delays and ũ = 3u: these runs exercise the adversary callbacks, the
/// knowledge gate and `pick_delay` on every send, which the silent pins
/// above never reach. These and [`PINNED_CATALOG`] were recorded at
/// commit 8ac66b2, while the two simulators still had separate send and
/// adversary code.
const PINNED_STAGGERED: u64 = 0x805a21cd9627aff5;
const PINNED_RUSHING: u64 = 0xd6b5680eb949bd0a;

/// `(scenario, trace hash, chaos_drops, chaos_duplicates)` for every
/// committed chaos scenario at its native `n`.
/// [`trace_hash`] does not cover the two chaos counters, so they are
/// pinned beside it.
const PINNED_CATALOG: &[(&str, u64, u64, u64)] = &[
    ("calm_baseline", 0x582e10b36025c492, 0, 0),
    ("crash_recover", 0x3c12f0e099283f3c, 168, 0),
    ("crash_forever", 0x6ed41f87ef270b41, 848, 0),
    ("client_churn", 0x9d676db1d461d85e, 352, 0),
    ("delay_storm", 0xc19d1966bacbc96d, 0, 0),
    ("partition_heal", 0xc25f4cfa4e8349a3, 472, 0),
    ("round_flood", 0x3243fa9226123c0e, 0, 10640),
    ("rushing_flood", 0x9e38e34fbfd9729c, 0, 12096),
    ("rejoin_probe", 0x42ad6d706c8a9d80, 560, 0),
    ("silent_death_probe", 0xd535287472790879, 848, 0),
    ("crash_storm_heal", 0x77bc3757fd2c4abd, 419, 0),
    ("rolling_restart", 0x4d5fd9e61665699d, 458, 0),
    // The worker-panic drill fires on the wall-clock runtime only; on the
    // simulator it replays the calm baseline.
    ("worker_panic", 0x582e10b36025c492, 0, 0),
];

#[test]
fn fixed_seed_cps_traces_are_pinned() {
    for &(n, expected) in PINNED {
        let (trace, _) = cps_scenario(n).run_cps_trace(Box::new(SilentAdversary));
        let got = trace_hash(&trace);
        assert_eq!(
            got, expected,
            "n={n}: trace hash {got:#018x} != pinned {expected:#018x} — \
             the engine's observable behaviour changed \
             (events={}, messages={}, violations={:?})",
            trace.events_processed, trace.messages_delivered, trace.violations
        );
    }
}

#[test]
fn n64_cps_trace_is_pinned() {
    let (trace, _) = cps_scenario(64).run_cps_trace(Box::new(SilentAdversary));
    let got = trace_hash(&trace);
    assert_eq!(
        got, PINNED_N64,
        "n=64: trace hash {got:#018x} != pinned {PINNED_N64:#018x} \
         (events={}, messages={}, violations={:?})",
        trace.events_processed, trace.messages_delivered, trace.violations
    );
    assert_eq!(trace.tallied_deliveries, 243_474, "deliveries counted without queueing");
}

/// The event queue and the delivery tally hand their buffers to the next
/// `Sim` on the same thread, so a run after a larger one starts with
/// capacity to spare. Only capacity moves, so every pinned hash still
/// reproduces. The runs share a thread of their own, whose stash starts
/// empty.
#[test]
fn a_run_after_a_larger_one_on_the_same_thread_keeps_its_pin() {
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let (trace, _) = cps_scenario(64).run_cps_trace(Box::new(SilentAdversary));
            assert_eq!(trace_hash(&trace), PINNED_N64, "n=64, first on the thread");
            for &(n, expected) in PINNED {
                let (trace, _) = cps_scenario(n).run_cps_trace(Box::new(SilentAdversary));
                let got = trace_hash(&trace);
                assert_eq!(got, expected, "n={n} after n=64: {got:#018x}");
            }
        });
    });
}

/// CPS at n = 9 with f = 4 silent nodes and no pulse target, so the run
/// ends on the horizon rule.
fn horizon_run(delays: DelayModel, horizon: Time) -> Trace {
    let params = Params::max_resilience(9, Dur::from_millis(1.0), Dur::from_micros(10.0), 1.0001);
    let derived = params.derive().expect("feasible scenario");
    SimBuilder::new(params.n)
        .faulty(params.n - params.f..params.n)
        .link(params.d, params.u)
        .delays(delays)
        .drift(DriftModel::RandomStable, params.theta, derived.s)
        .seed(0xC0FFEE)
        .horizon(horizon)
        .build(|me| CpsNode::new(me, params, derived), Box::new(SilentAdversary))
        .run()
}

#[test]
fn horizon_stopped_traces_are_pinned() {
    for (delays, horizon, expected) in PINNED_HORIZON {
        let trace = horizon_run(delays.clone(), Time::from_secs(horizon));
        let got = trace_hash(&trace);
        assert_eq!(
            got, expected,
            "{delays:?}: trace hash {got:#018x} != pinned {expected:#018x} \
             (events={}, messages={}, finished_at={:?}, pulses={:?})",
            trace.events_processed,
            trace.messages_delivered,
            trace.finished_at,
            trace.pulses.iter().map(Vec::len).collect::<Vec<_>>()
        );
    }
}

/// As silent as [`SilentAdversary`] but not declared passive, so the
/// engine queues and dispatches every delivery to a faulty node.
struct Watching;

impl<M> Adversary<M> for Watching {}

/// Under a passive adversary `Sim::run` counts deliveries to faulty
/// nodes instead of queueing them (`Trace::tallied_deliveries`); the
/// queued path is the oracle. CPS runs of the snapshot scenario at
/// n ∈ {4, 8, 16}, over three seeds and two delay models, must give the
/// same trace either way. `crusader_sim`'s own
/// `tallied_deliveries_leave_the_trace_unchanged` covers the horizon and
/// event-cap stops on a small protocol.
#[test]
fn tallied_cps_deliveries_leave_the_trace_unchanged() {
    for n in [4, 8, 16] {
        for seed in [1, 2, 3] {
            for delays in [DelayModel::Random, DelayModel::MaxAlways] {
                let mut scenario = cps_scenario(n);
                scenario.seed = seed;
                scenario.delays = delays.clone();
                let (tallied, _) = scenario.run_cps_trace(Box::new(SilentAdversary));
                let (queued, _) = scenario.run_cps_trace(Box::new(Watching));
                let case = format!("n={n}, seed {seed}, {delays:?}");
                assert_eq!(trace_hash(&tallied), trace_hash(&queued), "{case}");
                assert_eq!(queued.tallied_deliveries, 0, "{case}");
                assert!(tallied.tallied_deliveries > 0, "{case}");
            }
        }
    }
}

/// The event queue's heap exists for pathological far-future timers;
/// the standard CPS scenarios must never spill into it (every CPS timer
/// fires within `T + 3S < 13 d`, well inside the ~16 `d` window the
/// queue's ring keeps just past the pops). A nonzero count here means
/// the window's sizing regressed or it stopped following the pops, and
/// the queue is quietly degrading toward heap behaviour.
#[test]
fn standard_cps_scenarios_never_spill() {
    for &(n, _) in PINNED {
        let (trace, _) = cps_scenario(n).run_cps_trace(Box::new(SilentAdversary));
        assert_eq!(
            trace.queue_spill_count, 0,
            "n={n}: {} events overflowed the event queue's window",
            trace.queue_spill_count
        );
    }
}

/// The n = 8 snapshot scenario with adversary-chosen delays and ũ = 3u.
fn active_scenario() -> Scenario {
    let mut scenario = cps_scenario(8);
    scenario.delays = DelayModel::AdversaryChoice;
    scenario.u_tilde = Some(scenario.u * 3.0);
    scenario
}

#[test]
fn active_adversary_traces_are_pinned() {
    type MakeAdversary = fn() -> Box<dyn Adversary<Carry>>;
    let cases: [(&str, MakeAdversary, u64); 2] = [
        (
            "StaggeredDealer",
            || Box::new(StaggeredDealer::new(Dur::from_micros(300.0))),
            PINNED_STAGGERED,
        ),
        ("RushingForwarder", || Box::new(RushingForwarder::new()), PINNED_RUSHING),
    ];
    for (name, adversary, expected) in cases {
        let (trace, _) = active_scenario().run_cps_trace(adversary());
        let got = trace_hash(&trace);
        assert_eq!(
            got, expected,
            "{name}: trace hash {got:#018x} != pinned {expected:#018x} \
             (events={}, messages={}, forgeries_blocked={}, violations={})",
            trace.events_processed,
            trace.messages_delivered,
            trace.forgeries_blocked,
            trace.violations.len()
        );
    }
}

#[test]
fn chaos_catalog_traces_are_pinned() {
    let catalog = Catalog::load(&builtin_catalog_dir()).expect("committed catalog loads");
    let got: Vec<(String, u64, u64, u64)> = catalog
        .scenarios
        .iter()
        .map(|sc| {
            let out = run_scenario(
                sc,
                Executor::Sim {
                    lanes: 1,
                    force_parallel: None,
                },
            );
            (
                sc.name.clone(),
                trace_hash(&out.trace),
                out.trace.chaos_drops,
                out.trace.chaos_duplicates,
            )
        })
        .collect();
    let expected: Vec<(String, u64, u64, u64)> = PINNED_CATALOG
        .iter()
        .map(|&(name, hash, drops, dups)| (name.to_owned(), hash, drops, dups))
        .collect();
    assert_eq!(
        got, expected,
        "a catalog replay's (trace hash, chaos_drops, chaos_duplicates) changed"
    );
}

/// `(ũ in µs, CPS hash, echo-sync hash)` of [`tri_hash`] over E7's
/// grid: Theorem 5's merged tri-execution at d = 1 ms, θ = 1.05, ten
/// pulses, horizon 5 s. Recorded at commit 2fb9fd7, while the engine
/// still had its own handler context and timer-id counter.
const PINNED_TRI: [(f64, u64, u64); 4] = [
    (50.0, 0xe030d0a0a77ef374, 0x0e00cbf12aed1ef0),
    (100.0, 0x4056ea90c95cbf76, 0x2fef7a207bf6f9ed),
    (200.0, 0xa456d27c745a36c4, 0x30bbb7161d8235fe),
    (400.0, 0x8ffad7c0a84f4eec, 0x2c6a2bc039dfe107),
];

/// FNV-1a over a [`TriTrace`]: every pulse's local and real time as bit
/// patterns, the audit's violations, and the message count.
fn tri_hash(trace: &TriTrace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut write = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for locals in &trace.pulse_locals {
        write(&(locals.len() as u64).to_le_bytes());
        for local in locals {
            write(&local.as_secs().to_bits().to_le_bytes());
        }
    }
    for execution in &trace.pulses {
        for pulses in execution {
            write(&(pulses.len() as u64).to_le_bytes());
            for t in pulses {
                write(&t.as_secs().to_bits().to_le_bytes());
            }
        }
    }
    write(&(trace.well_formedness_violations.len() as u64).to_le_bytes());
    for v in &trace.well_formedness_violations {
        write(v.as_bytes());
        write(&[0xff]);
    }
    write(&trace.messages.to_le_bytes());
    h
}

#[test]
fn tri_execution_traces_are_pinned() {
    let d = Dur::from_millis(1.0);
    let theta = 1.05;
    let got: Vec<(f64, u64, u64)> = PINNED_TRI
        .iter()
        .map(|&(u_us, _, _)| {
            let u_tilde = Dur::from_micros(u_us);
            let cfg = TriConfig {
                d,
                u_tilde,
                theta,
                max_pulses: 10,
                horizon: Dur::from_secs(5.0),
            };
            let params = Params::max_resilience(3, d, u_tilde, theta);
            let derived = params.derive().expect("E7's parameters are valid");
            let cps = TriSim::new(cfg, |me| CpsNode::new(me, params, derived)).run();
            let echo = TriSim::new(cfg, |me| {
                EchoSyncNode::new(me, 3, 1, Dur::from_millis(20.0))
            })
            .run();
            (u_us, tri_hash(&cps), tri_hash(&echo))
        })
        .collect();
    let got_hex: Vec<String> = got
        .iter()
        .map(|(u, c, e)| format!("({u:.1}, {c:#018x}, {e:#018x})"))
        .collect();
    assert_eq!(
        got,
        PINNED_TRI.to_vec(),
        "a tri-execution trace changed: {got_hex:?}"
    );
}

#[test]
fn trace_hash_is_stable_across_runs() {
    let run = || {
        let (trace, _) = cps_scenario(8).run_cps_trace(Box::new(SilentAdversary));
        trace_hash(&trace)
    };
    assert_eq!(run(), run());
}

#[test]
fn trace_hash_distinguishes_seeds() {
    let mut a = cps_scenario(8);
    let mut b = cps_scenario(8);
    a.seed = 1;
    b.seed = 2;
    let (ta, _) = a.run_cps_trace(Box::new(SilentAdversary));
    let (tb, _) = b.run_cps_trace(Box::new(SilentAdversary));
    assert_ne!(trace_hash(&ta), trace_hash(&tb));
}
