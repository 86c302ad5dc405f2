//! Property-based tests over randomized model configurations: for *any*
//! legal combination of delays, drift, seeds, fault placement and
//! adversary, CPS must satisfy Definition 3 (liveness, S-bounded skew,
//! period bounds).

use crusader::core::adversary::{RushingForwarder, StaggeredDealer};
use crusader::core::{bounds, Carry, CpsNode, Derived, Params};
use crusader::crypto::NodeId;
use crusader::sim::metrics::pulse_stats;
use crusader::sim::{Adversary, DelayModel, SilentAdversary, SimBuilder};
use crusader::time::drift::DriftModel;
use crusader::time::{Dur, Time};
use proptest::prelude::*;

fn delay_model() -> impl Strategy<Value = DelayModel> {
    prop_oneof![
        Just(DelayModel::Random),
        Just(DelayModel::MinAlways),
        Just(DelayModel::MaxAlways),
        Just(DelayModel::Extremal),
        Just(DelayModel::Tilted),
    ]
}

fn drift_model() -> impl Strategy<Value = DriftModel> {
    prop_oneof![
        Just(DriftModel::Perfect),
        Just(DriftModel::OffsetsOnly),
        Just(DriftModel::ExtremalSplit),
        Just(DriftModel::RandomStable),
        Just(DriftModel::Wander {
            interval: Dur::from_millis(2.0),
            pieces: 16,
        }),
    ]
}

/// The faulty nodes' strategy. Every strategy runs on the default link,
/// where faulty links keep the honest minimum delay (ũ = u).
#[derive(Clone, Copy, Debug, PartialEq)]
enum Attack {
    Silent,
    /// Echoes honest dealers' broadcasts at the minimum delay.
    Rushing,
    /// Round-anticipating dealers straddling the honest estimates, the
    /// late half arriving `stagger` after the early half.
    Anticipating,
}

impl Attack {
    fn build(self, stagger: Dur, params: &Params, derived: &Derived) -> Box<dyn Adversary<Carry>> {
        match self {
            Attack::Silent => Box::new(SilentAdversary),
            Attack::Rushing => Box::new(RushingForwarder::new()),
            Attack::Anticipating => {
                Box::new(StaggeredDealer::anticipating(stagger, params, derived))
            }
        }
    }
}

fn attack() -> impl Strategy<Value = Attack> {
    prop_oneof![
        Just(Attack::Silent),
        Just(Attack::Rushing),
        Just(Attack::Anticipating),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 400, // each case is a full multi-pulse simulation
        ..ProptestConfig::default()
    })]

    /// Definition 3 holds across the legal parameter space.
    #[test]
    fn cps_satisfies_definition_3(
        n in 3usize..10,
        fault_seed in 0u64..1000,
        u_us in 1.0f64..200.0,
        theta_exp in -5.0f64..-1.5, // θ − 1 ∈ [10^-5, 10^-1.5]
        delays in delay_model(),
        drift in drift_model(),
        attack in attack(),
        stagger_over_s in 0.0f64..2.0, // an anticipating dealer's stagger ∈ [0, 2S)
        seed in 0u64..10_000,
    ) {
        let theta = 1.0 + 10f64.powf(theta_exp);
        let d = Dur::from_millis(1.0);
        let u = Dur::from_micros(u_us);
        let f_max = crusader::core::max_faults_with_signatures(n);
        // Pseudo-random fault placement with 0..=f_max faults.
        let f = (fault_seed as usize) % (f_max + 1);
        let faulty: Vec<usize> = (0..n)
            .map(|i| (i * 2654435761 + fault_seed as usize) % n)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .take(f)
            .collect();
        let params = Params { n, f: f_max, d, u, theta };
        let derived = params.derive().expect("feasible by construction");
        let stagger = derived.s * stagger_over_s;
        let trace = SimBuilder::new(n)
            .faulty(faulty.iter().copied())
            .link(d, u)
            .delays(delays)
            .drift(drift, theta, derived.s)
            .seed(seed)
            .horizon(Time::from_secs(120.0))
            .max_pulses(6)
            .build(|me| CpsNode::new(me, params, derived), attack.build(stagger, &params, &derived))
            .run();
        let honest: Vec<NodeId> = NodeId::all(n)
            .filter(|v| !faulty.contains(&v.index()))
            .collect();
        let stats = pulse_stats(&trace, &honest);
        let mut case = format!("n={n}, f={f}, u={u_us}µs, θ={theta}, {attack:?}");
        if attack == Attack::Anticipating {
            case += &format!(" (stagger {stagger})");
        }
        // Liveness.
        prop_assert_eq!(
            stats.complete_pulses, 6,
            "{}; violations: {:?}", case, trace.violations
        );
        // No protocol complaint under a silent or rushing adversary; for
        // the anticipating dealer Definition 3 is the claim, as in
        // `crusader_core::adversary`'s unit tests.
        if attack != Attack::Anticipating {
            prop_assert!(trace.violations.is_empty(), "{}; {:?}", case, trace.violations);
        }
        // S-bounded skew and period bounds.
        prop_assert_eq!(bounds::definition3(&stats, &derived), Ok(()), "{}", case);
    }

    /// Parameter derivation is monotone: more uncertainty or more drift
    /// can never shrink the required skew bound.
    #[test]
    fn derived_s_is_monotone(
        u1 in 1.0f64..100.0,
        du in 0.0f64..100.0,
        t1 in -5.0f64..-1.6,
        dt in 0.0f64..0.1,
    ) {
        let d = Dur::from_millis(1.0);
        let mk = |u_us: f64, t_exp: f64| {
            Params::max_resilience(4, d, Dur::from_micros(u_us), 1.0 + 10f64.powf(t_exp))
                .derive()
                .unwrap()
        };
        let base = mk(u1, t1);
        let more_u = mk(u1 + du, t1);
        prop_assert!(more_u.s >= base.s);
        let t2 = (t1 + dt).min(-1.6);
        let more_t = mk(u1, t2);
        prop_assert!(more_t.s >= base.s - Dur::from_nanos(1.0));
    }

    /// The feasibility polynomial agrees with derive() everywhere.
    #[test]
    fn feasibility_consistent_with_derive(theta in 1.0001f64..1.3) {
        let p = Params::max_resilience(
            4,
            Dur::from_millis(1.0),
            Dur::from_micros(10.0),
            theta,
        );
        let feasible = Params::feasibility(theta) > 0.0;
        prop_assert_eq!(p.derive().is_ok(), feasible);
    }
}
