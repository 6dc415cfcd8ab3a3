//! Weighted-pick microbench: the guide-table pick
//! (`livescope_workload::CumulativeTable`, DESIGN.md §10) against the
//! whole-table binary search it replaced, at the viewer-propensity
//! table sizes of `benchmark/`'s `usage_replay` (300k users), divisor 10
//! (1.2M) and the paper's own scale (12M) — so the paper-scale effect
//! of the pick is measurable without a ten-minute divisor-1 replay.
//!
//! Both arms make the same `gen_range(0.0..total)` draw per pick from
//! the same seed, so they search for the same needles (asserted equal
//! before timing); `ns/pick = 1000 / Melem/s`.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use livescope_sim::dist;
use livescope_workload::{CumulativeTable, ScenarioConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 42;
/// Picks per iteration (amortizes the timer; ~230 Periscope records'
/// worth of mobile views).
const PICKS: usize = 4_096;

/// The search the guide replaced: `partition_point` over the whole table.
fn oracle_pick(cumulative: &[f64], rng: &mut SmallRng) -> u32 {
    let total = *cumulative.last().expect("non-empty table");
    let needle = rng.gen_range(0.0..total);
    cumulative.partition_point(|&c| c <= needle) as u32
}

fn bench_weighted_pick(c: &mut Criterion) {
    let preset = ScenarioConfig::periscope_study();
    for users in [300_000usize, 1_200_000, 12_000_000] {
        // Periscope's viewer table: lognormal σ = 2.2, 5% inactive.
        let table = CumulativeTable::new(
            &mut SmallRng::seed_from_u64(SEED),
            users,
            preset.viewer_inactive_fraction,
            |rng| dist::log_normal(rng, 0.0, preset.viewer_activity_sigma),
        );
        let cumulative = table.cumulative();
        let (mut a, mut b) = (SmallRng::seed_from_u64(SEED), SmallRng::seed_from_u64(SEED));
        for _ in 0..PICKS {
            assert_eq!(table.pick(&mut a), oracle_pick(cumulative, &mut b));
        }

        let mut group = c.benchmark_group(&format!("weighted_pick_{users}_users"));
        group.throughput(Throughput::Elements(PICKS as u64));
        // The RNGs run on across iterations, so no iteration repeats the
        // needles (and the cache lines) of the one before.
        group.bench_function("guided", |bench| {
            bench.iter(|| {
                (0..PICKS).fold(0u64, |acc, _| acc.wrapping_add(table.pick(&mut a) as u64))
            })
        });
        group.bench_function("oracle", |bench| {
            bench.iter(|| {
                (0..PICKS).fold(0u64, |acc, _| {
                    acc.wrapping_add(oracle_pick(cumulative, &mut b) as u64)
                })
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_weighted_pick);
criterion_main!(benches);
