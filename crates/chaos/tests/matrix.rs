//! The simulator half of the cross-executor chaos matrix: every
//! committed scenario replays on the single-lane simulator and the
//! sharded simulator at several lane counts, bit-identically. The
//! wall-clock half lives in `wallclock.rs` — its own test binary, so
//! the real-time runs never race these CPU-saturating ones.

use crusader_chaos::{builtin_catalog_dir, run_scenario, Catalog, Executor, Expectation};
use crusader_sim::Trace;

fn catalog() -> Catalog {
    Catalog::load(&builtin_catalog_dir()).expect("committed catalog loads")
}

/// The deterministic slice of a [`Trace`] — everything except the three
/// executor-dependent queue/slab diagnostics documented on the struct.
fn deterministic_view(t: &Trace) -> impl PartialEq + std::fmt::Debug {
    (
        t.pulses.clone(),
        t.violations.clone(),
        t.forgeries_blocked,
        t.messages_delivered,
        t.chaos_drops,
        t.chaos_duplicates,
    )
}

#[test]
fn catalog_covers_the_required_failure_classes() {
    let cat = catalog();
    assert!(
        cat.scenarios.len() >= 8,
        "catalog has {} scenarios, need at least 8",
        cat.scenarios.len()
    );
    let recovering_crash = cat
        .scenarios
        .iter()
        .any(|s| s.crashes.iter().any(|c| c.until.is_some()));
    assert!(recovering_crash, "no crash/recover scenario");
    assert!(
        cat.scenarios.iter().any(|s| !s.cuts.is_empty()),
        "no partition-heal scenario"
    );
    assert!(
        cat.scenarios.iter().any(|s| !s.floods.is_empty()),
        "no round-flooding scenario"
    );
    let probe = cat.scenarios.iter().any(|s| {
        s.expect == Expectation::Violations && s.crashes.iter().any(|c| c.until.is_some())
    });
    assert!(probe, "no arbitrary-state recovery probe pinned to violate");
    assert!(
        cat.scenarios.iter().any(|s| s.is_fault_free()),
        "no fault-free control scenario"
    );
    let resync_bounded = cat.scenarios.iter().any(|s| {
        s.invariants.resync.is_some() && s.crashes.iter().filter(|c| c.until.is_some()).count() > 1
    });
    assert!(
        resync_bounded,
        "no multi-recovery scenario pinning a time-to-resync bound"
    );
    assert!(
        cat.scenarios.iter().any(|s| !s.panics.is_empty()),
        "no worker-panic drill scenario"
    );
}

#[test]
fn sim_replays_are_bit_identical_across_lane_counts() {
    for sc in &catalog().scenarios {
        let reference = run_scenario(
            sc,
            Executor::Sim {
                lanes: 1,
                force_parallel: None,
            },
        );
        assert!(
            reference.as_expected(sc),
            "{}: single-lane verdict {:?} does not match pinned expectation",
            sc.name,
            reference.verdict
        );
        for lanes in [4, 8] {
            let sharded = run_scenario(
                sc,
                Executor::Sim {
                    lanes,
                    force_parallel: Some(true),
                },
            );
            assert_eq!(
                deterministic_view(&reference.trace),
                deterministic_view(&sharded.trace),
                "{}: {lanes}-lane trace diverges from the single-lane reference",
                sc.name
            );
            assert_eq!(
                reference.verdict.violations, sharded.verdict.violations,
                "{}: {lanes}-lane continuous checker disagrees",
                sc.name
            );
            assert_eq!(
                reference.verdict.tolerated, sharded.verdict.tolerated,
                "{}: {lanes}-lane tolerated count disagrees",
                sc.name
            );
        }
    }
}

/// The event queue keeps its traffic on the ring under every fault
/// timeline: at the benchmark's size (`rescale(32)`), on one lane and on
/// four, spills plus splices — the pushes that go to the queue's heap
/// instead of an O(1) ring append — stay at or under 1 % of a scenario's
/// events. A count ratio, so it holds on any host. (A window that does
/// not follow the pops fails it: one anchored once per 16 d epoch
/// spilled 8.7 % of `round_flood`'s events.)
#[test]
fn queue_splices_stay_under_one_percent_of_events() {
    for sc in &catalog().scenarios {
        let sc = sc.rescale(32).expect("catalog scenarios rescale to n = 32");
        let reference = run_scenario(
            &sc,
            Executor::Sim {
                lanes: 1,
                force_parallel: None,
            },
        );
        let sharded = run_scenario(
            &sc,
            Executor::Sim {
                lanes: 4,
                force_parallel: Some(true),
            },
        );
        assert_eq!(
            deterministic_view(&reference.trace),
            deterministic_view(&sharded.trace),
            "{}: 4-lane trace diverges from the single-lane reference at n = 32",
            sc.name
        );
        for (lanes, trace) in [(1, &reference.trace), (4, &sharded.trace)] {
            let off_ring = trace.queue_spill_count + trace.queue_splice_count;
            assert!(
                off_ring <= trace.events_processed / 100,
                "{} on {lanes} lane(s): {} spills + {} splices of {} events left the ring",
                sc.name,
                trace.queue_spill_count,
                trace.queue_splice_count,
                trace.events_processed
            );
        }
    }
}

#[test]
fn violating_scenarios_carry_first_violation_timestamps() {
    for sc in &catalog().scenarios {
        if sc.expect != Expectation::Violations {
            continue;
        }
        let out = run_scenario(
            sc,
            Executor::Sim {
                lanes: 1,
                force_parallel: None,
            },
        );
        let first = out
            .verdict
            .first_violation()
            .unwrap_or_else(|| panic!("{}: pinned to violate but clean", sc.name));
        assert!(
            first.at > crusader_time::Time::ZERO
                && first.at <= crusader_time::Time::ZERO + sc.run_for,
            "{}: first violation {first} outside the run window",
            sc.name
        );
    }
}
