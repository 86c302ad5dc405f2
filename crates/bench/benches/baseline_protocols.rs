//! Criterion: one 8-pulse run of each protocol in the E8 comparison, at
//! identical network parameters (n = 8, f = 3 silent).

use criterion::{criterion_group, criterion_main, Criterion};
use crusader_baselines::{ChainSyncNode, EchoSyncNode, LwNode};
use crusader_bench::Scenario;
use crusader_sim::SilentAdversary;
use crusader_time::Dur;

fn scenario() -> Scenario {
    let mut s = Scenario::new(8, Dur::from_millis(1.0), Dur::from_micros(10.0), 1.0001);
    s.pulses = 8;
    s
}

fn bench_protocols(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocols_8x8");
    group.sample_size(10);
    group.bench_function("cps", |b| {
        let s = scenario();
        b.iter(|| s.run_cps(Box::new(SilentAdversary)).0.stats.complete_pulses);
    });
    group.bench_function("lynch_welch", |b| {
        let mut s = scenario();
        s.faulty = vec![6, 7]; // LW needs f < n/3
        let params = s.params();
        let derived = params.derive().unwrap();
        b.iter(|| {
            s.run_protocol(
                derived.s,
                |me| LwNode::new(me, params, derived),
                Box::new(SilentAdversary),
            )
            .stats
            .complete_pulses
        });
    });
    group.bench_function("echo_sync", |b| {
        let s = scenario();
        b.iter(|| {
            s.run_protocol(
                Dur::from_millis(1.0),
                |me| EchoSyncNode::new(me, 8, 3, Dur::from_millis(10.0)),
                Box::new(SilentAdversary),
            )
            .stats
            .complete_pulses
        });
    });
    group.bench_function("chain_sync", |b| {
        let mut s = scenario();
        s.faulty = vec![]; // relay prefix must be honest
        b.iter(|| {
            s.run_protocol(
                Dur::ZERO,
                |me| ChainSyncNode::new(me, 8, 3, Dur::from_millis(1.0), 1.0001),
                Box::new(SilentAdversary),
            )
            .stats
            .complete_pulses
        });
    });
    group.finish();
}

criterion_group!(benches, bench_protocols);
criterion_main!(benches);
