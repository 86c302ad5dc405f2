//! Criterion: full CPS simulation cost as system size grows (the harness
//! behind experiments E1-E4; regenerating a skew table point costs one of
//! these runs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crusader_bench::snapshot::{cps_scenario, CPS_SNAPSHOT_PULSES};
use crusader_sim::SilentAdversary;

fn bench_cps(c: &mut Criterion) {
    let mut group = c.benchmark_group("cps_sim");
    group.sample_size(10);
    for n in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let s = cps_scenario(n);
            b.iter(|| {
                let (m, _) = s.run_cps(Box::new(SilentAdversary));
                assert_eq!(m.stats.complete_pulses as u64, CPS_SNAPSHOT_PULSES);
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cps);
criterion_main!(benches);
