//! Wall-clock executor checks, isolated in their own test binary: cargo
//! runs test binaries sequentially, so these real-time runs never race
//! the CPU-saturating sharded-sim tests (a full-mesh CPS round misses
//! its deadlines when 8 event lanes own every core). Within the
//! binary, [`GATE`] serializes the tests themselves.

use std::sync::{Mutex, MutexGuard};

use crusader_chaos::{builtin_catalog_dir, run_scenario, Catalog, Executor, Scenario};

static GATE: Mutex<()> = Mutex::new(());

/// Silences the default panic-hook backtrace chatter for the injected
/// drills the `worker_panic` scenario fires on purpose; real panics
/// still print.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.starts_with("injected fault") {
                default(info);
            }
        }));
    });
}

/// Take the serialization gate, shrugging off poisoning: a failure in
/// one test should report as that test's failure alone, not cascade a
/// `PoisonError` into every later wall-clock test.
fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn catalog() -> Catalog {
    Catalog::load(&builtin_catalog_dir()).expect("committed catalog loads")
}

/// Replay a scenario on the wall-clock runtime until `good` accepts the
/// outcome, giving up after three attempts and returning the last one.
///
/// Host scheduling is the one adversary the catalog cannot budget for:
/// a descheduled quantum longer than the protocol's slack loses a
/// round no link bound survives, and on a shared host that happens to
/// a fraction of a percent of replays. A genuine regression fails all
/// three attempts; a scheduler stall does not repeat.
fn run_wallclock(
    sc: &Scenario,
    good: impl Fn(&crusader_chaos::Outcome) -> bool,
) -> crusader_chaos::Outcome {
    let executor = Executor::Runtime { workers: None };
    let mut out = run_scenario(sc, executor);
    for _ in 0..2 {
        if good(&out) {
            break;
        }
        out = run_scenario(sc, executor);
    }
    out
}

/// The wall-clock runtime, every scenario, one sequential pass.
#[test]
fn runtime_reaches_every_pinned_verdict() {
    let _gate = gate();
    quiet_injected_panics();
    for sc in &catalog().scenarios {
        let out = run_wallclock(sc, |out| out.as_expected(sc));
        assert!(
            out.as_expected(sc),
            "{} on the runtime: verdict {:?} does not match pinned expectation",
            sc.name,
            out.verdict
        );
    }
}

/// The wall-clock half of the false-positive guard. Sizes stay at
/// n >= 8: the fault budget f = ceil(n/2) - 1 is what absorbs host
/// scheduler jitter, and at n = 4 (f = 1) a single descheduled quantum
/// can push an honest round over budget — a property of wall-clock
/// hosts, not a checker false positive.
#[test]
fn fault_free_scenarios_are_spotless_on_the_runtime() {
    let _gate = gate();
    let bases: Vec<Scenario> = catalog()
        .scenarios
        .into_iter()
        .filter(Scenario::is_fault_free)
        .collect();
    assert!(!bases.is_empty(), "catalog has no fault-free scenario");
    for base in &bases {
        for n in [8, 13] {
            let mut sc = base.rescale(n).expect("fault-free scenarios rescale");
            sc.seed = 5;
            let out = run_wallclock(&sc, |out| {
                out.verdict.clean() && out.verdict.tolerated == 0
            });
            assert!(
                out.verdict.clean(),
                "{} (n={n}) on the runtime: fault-free run reported {:?}",
                sc.name,
                out.verdict.violations
            );
            assert_eq!(
                out.verdict.tolerated, 0,
                "{} (n={n}) on the runtime: fault-free run tolerated {} complaints",
                sc.name, out.verdict.tolerated
            );
        }
    }
}
