//! Integration grid for Theorem 17: across system sizes, fault loads,
//! delay/drift regimes, adversarial delay policies and active Byzantine
//! strategies, CPS keeps liveness, skew ≤ S, and periods within
//! [(T − (θ+1)S)/θ, T + 3S].

use crusader::core::adversary::{RushingForwarder, StaggeredDealer};
use crusader::core::{Carry, CpsNode, Derived, Params};
use crusader::crypto::NodeId;
use crusader::sim::metrics::pulse_stats;
use crusader::sim::{Adversary, DelayModel, SilentAdversary, SimBuilder};
use crusader::time::drift::DriftModel;
use crusader::time::{Dur, Time};

/// Builds the adversary controlling a case's faulty nodes.
type MakeAdversary = fn(&Params, &Derived) -> Box<dyn Adversary<Carry>>;

fn silent(_: &Params, _: &Derived) -> Box<dyn Adversary<Carry>> {
    Box::new(SilentAdversary)
}

struct Case {
    name: &'static str,
    n: usize,
    faulty: Vec<usize>,
    d_us: f64,
    u_us: f64,
    theta: f64,
    delays: DelayModel,
    drift: DriftModel,
    adversary: MakeAdversary,
}

fn run_case(case: &Case, pulses: u64, seed: u64) {
    let params = Params::max_resilience(
        case.n,
        Dur::from_micros(case.d_us),
        Dur::from_micros(case.u_us),
        case.theta,
    );
    let derived = params.derive().unwrap_or_else(|e| panic!("{}: {e}", case.name));
    let trace = SimBuilder::new(case.n)
        .faulty(case.faulty.iter().copied())
        .link(params.d, params.u)
        .delays(case.delays.clone())
        .drift(case.drift.clone(), params.theta, derived.s)
        .seed(seed)
        .horizon(Time::from_secs(300.0))
        .max_pulses(pulses)
        .build(
            |me| CpsNode::new(me, params, derived),
            (case.adversary)(&params, &derived),
        )
        .run();
    let honest: Vec<NodeId> = NodeId::all(case.n)
        .filter(|v| !case.faulty.contains(&v.index()))
        .collect();
    let stats = pulse_stats(&trace, &honest);
    assert_eq!(
        stats.complete_pulses, pulses as usize,
        "{}: liveness failed ({:?})",
        case.name, trace.violations
    );
    assert!(
        trace.violations.is_empty(),
        "{}: violations {:?}",
        case.name,
        trace.violations
    );
    assert!(
        stats.max_skew <= derived.s,
        "{}: skew {} > S {}",
        case.name,
        stats.max_skew,
        derived.s
    );
    let tol = Dur::from_nanos(1.0);
    assert!(
        stats.min_period + tol >= derived.p_min,
        "{}: Pmin {} < {}",
        case.name,
        stats.min_period,
        derived.p_min
    );
    assert!(
        stats.max_period <= derived.p_max + tol,
        "{}: Pmax {} > {}",
        case.name,
        stats.max_period,
        derived.p_max
    );
}

#[test]
fn small_system_fault_free() {
    run_case(
        &Case {
            name: "n=2 fault-free",
            n: 2,
            faulty: vec![],
            d_us: 1000.0,
            u_us: 10.0,
            theta: 1.0001,
            delays: DelayModel::Random,
            drift: DriftModel::OffsetsOnly,
            adversary: silent,
        },
        10,
        1,
    );
}

#[test]
fn three_nodes_one_fault() {
    run_case(
        &Case {
            name: "n=3 f=1",
            n: 3,
            faulty: vec![2],
            d_us: 1000.0,
            u_us: 10.0,
            theta: 1.0001,
            delays: DelayModel::Extremal,
            drift: DriftModel::ExtremalSplit,
            adversary: silent,
        },
        12,
        2,
    );
}

#[test]
fn nine_nodes_four_faults_worst_drift() {
    run_case(
        &Case {
            name: "n=9 f=4 extremal",
            n: 9,
            faulty: vec![0, 2, 4, 6], // interleaved faulty positions
            d_us: 1000.0,
            u_us: 50.0,
            theta: 1.0005,
            delays: DelayModel::Tilted,
            drift: DriftModel::ExtremalSplit,
            adversary: silent,
        },
        12,
        3,
    );
}

#[test]
fn sixteen_nodes_seven_faults() {
    run_case(
        &Case {
            name: "n=16 f=7",
            n: 16,
            faulty: (9..16).collect(),
            d_us: 1000.0,
            u_us: 20.0,
            theta: 1.0002,
            delays: DelayModel::Random,
            drift: DriftModel::RandomStable,
            adversary: silent,
        },
        8,
        4,
    );
}

#[test]
fn tiny_delay_fast_clocks() {
    run_case(
        &Case {
            name: "rack-scale, big theta",
            n: 5,
            faulty: vec![4],
            d_us: 50.0,
            u_us: 1.0,
            theta: 1.02,
            delays: DelayModel::Extremal,
            drift: DriftModel::ExtremalSplit,
            adversary: silent,
        },
        15,
        5,
    );
}

#[test]
fn wan_scale_delays() {
    run_case(
        &Case {
            name: "WAN 80ms",
            n: 7,
            faulty: vec![5, 6],
            d_us: 80_000.0,
            u_us: 3_000.0,
            theta: 1.0002,
            delays: DelayModel::Random,
            drift: DriftModel::Wander {
                interval: Dur::from_millis(500.0),
                pieces: 8,
            },
            adversary: silent,
        },
        8,
        6,
    );
}

#[test]
fn wandering_clocks_many_seeds() {
    for seed in 10..16 {
        run_case(
            &Case {
                name: "wander sweep",
                n: 6,
                faulty: vec![5],
                d_us: 1000.0,
                u_us: 25.0,
                theta: 1.001,
                delays: DelayModel::Random,
                drift: DriftModel::Wander {
                    interval: Dur::from_millis(5.0),
                    pieces: 32,
                },
                adversary: silent,
            },
            10,
            seed,
        );
    }
}

/// Round-anticipating staggered dealers at the full fault budget, with
/// every delay at its adversary-chosen minimum and the clocks split
/// fast/slow the way the stagger pushes them.
#[test]
fn nine_nodes_four_staggered_dealers() {
    run_case(
        &Case {
            name: "n=9 f=4 staggered dealers",
            n: 9,
            faulty: (5..9).collect(),
            d_us: 1000.0,
            u_us: 50.0,
            theta: 1.0005,
            delays: DelayModel::AdversaryChoice,
            drift: DriftModel::ExtremalSplit,
            adversary: |params, derived| {
                Box::new(StaggeredDealer::anticipating(
                    Dur::from_micros(40.0),
                    params,
                    derived,
                ))
            },
        },
        12,
        7,
    );
}

/// Faulty nodes forward every honest dealer signature they receive back
/// into the network at the minimum delay.
#[test]
fn seven_nodes_three_rushing_forwarders() {
    run_case(
        &Case {
            name: "n=7 f=3 rushing forwarders",
            n: 7,
            faulty: (4..7).collect(),
            d_us: 1000.0,
            u_us: 20.0,
            theta: 1.0002,
            delays: DelayModel::AdversaryChoice,
            drift: DriftModel::RandomStable,
            adversary: |_, _| Box::new(RushingForwarder::new()),
        },
        12,
        8,
    );
}

#[test]
fn min_delays_give_geometric_convergence() {
    // With exact minimum delays and rate-1 clocks the offset estimates
    // are exact, so the skew halves every round until it is dominated by
    // nothing at all.
    let n = 4;
    let params = Params::max_resilience(
        n,
        Dur::from_millis(1.0),
        Dur::from_micros(10.0),
        1.0001,
    );
    let derived = params.derive().unwrap();
    let trace = SimBuilder::new(n)
        .link(params.d, params.u)
        .delays(DelayModel::MinAlways)
        .drift(DriftModel::OffsetsOnly, params.theta, derived.s)
        .seed(1)
        .horizon(Time::from_secs(60.0))
        .max_pulses(12)
        .build(
            |me| CpsNode::new(me, params, derived),
            Box::new(SilentAdversary),
        )
        .run();
    let honest: Vec<NodeId> = NodeId::all(n).collect();
    let stats = pulse_stats(&trace, &honest);
    assert_eq!(stats.complete_pulses, 12);
    let first = stats.skews[0];
    let last = stats.skews[11];
    assert!(
        last < first / 100.0,
        "expected geometric convergence: first {first}, last {last}"
    );
}
