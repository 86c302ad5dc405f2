//! The false-positive guard: fault-free catalog scenarios, swept over
//! seeds and system sizes, must report zero violations (and zero
//! tolerated protocol complaints) on every executor. Any hit means the
//! checker's bounds are mis-calibrated or an engine regressed — both
//! worth failing loudly over.

use crusader_chaos::{
    builtin_catalog_dir, run_scenario, scenario_params, Catalog, Executor, Scenario,
};
use crusader_core::{bounds, Derived};
use crusader_sim::metrics::PulseStats;

fn fault_free_scenarios() -> Vec<Scenario> {
    Catalog::load(&builtin_catalog_dir())
        .expect("committed catalog loads")
        .scenarios
        .into_iter()
        .filter(Scenario::is_fault_free)
        .collect()
}

fn reparameterize(base: &Scenario, n: usize, seed: u64) -> Scenario {
    let mut sc = base.rescale(n).expect("fault-free scenarios rescale to any n");
    sc.name = format!("{}_n{n}_s{seed}", sc.name);
    sc.seed = seed;
    sc
}

fn assert_spotless(sc: &Scenario, executor: Executor) {
    let out = run_scenario(sc, executor);
    assert!(
        out.verdict.clean(),
        "{} on {executor}: fault-free run reported {:?}",
        sc.name,
        out.verdict.violations
    );
    assert_eq!(
        out.verdict.tolerated, 0,
        "{} on {executor}: fault-free run tolerated {} protocol complaints",
        sc.name, out.verdict.tolerated
    );
    assert_eq!(
        out.trace.chaos_drops, 0,
        "{} on {executor}: fault-free run dropped messages",
        sc.name
    );
}

#[test]
fn fault_free_scenarios_are_spotless_on_the_simulator() {
    let bases = fault_free_scenarios();
    assert!(!bases.is_empty(), "catalog has no fault-free scenario");
    for base in &bases {
        for n in [4, 8, 13] {
            for seed in [5, 6, 7] {
                let sc = reparameterize(base, n, seed);
                assert_spotless(
                    &sc,
                    Executor::Sim {
                        lanes: 1,
                        force_parallel: None,
                    },
                );
            }
        }
    }
}

/// No committed scenario's hand-set `skew_ms` or `period_ms` is tighter
/// than Theorem 17 at the scenario's own `(d, u, θ)`: pulses at the
/// theorem's extremes pass Definition 3 against the scenario's limits.
/// `resync_ms` pins a regression envelope, tighter than the claimed
/// catch-up bound on purpose, so it is not checked here.
#[test]
fn catalog_invariants_admit_theorem_17() {
    let catalog = Catalog::load(&builtin_catalog_dir()).expect("committed catalog loads");
    for sc in catalog.scenarios {
        let derived = scenario_params(&sc).derive().expect("catalog params feasible");
        let spec = &sc.invariants;
        let (p_min, p_max) = spec.period.unwrap_or((derived.p_min, derived.p_max));
        let limits = Derived { s: spec.skew.unwrap_or(derived.s), p_min, p_max, ..derived };
        let extremes = PulseStats {
            skews: vec![derived.s; 2],
            max_skew: derived.s,
            min_period: derived.p_min,
            min_period_round: 1,
            max_period: derived.p_max,
            max_period_round: 1,
            complete_pulses: 2,
        };
        assert_eq!(bounds::definition3(&extremes, &limits), Ok(()), "{}", sc.name);
    }
}

// The wall-clock half of this guard lives in `wallclock.rs`, isolated
// in its own test binary so real-time runs never race the simulator
// sweep above.
