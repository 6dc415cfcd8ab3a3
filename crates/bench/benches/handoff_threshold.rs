//! RTMP→HLS handoff-threshold ablation: the paper notes Periscope caps
//! RTMP (and commenting) at ~100 viewers for scalability. This bench
//! quantifies the ingest-side cost of raising that cap: per-frame fan-out
//! work is linear in RTMP subscribers, so doubling the threshold doubles
//! the most expensive work in the system.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use livescope_core::scalability::{run_rtmp_cell, ScalabilityConfig};

fn bench_handoff(c: &mut Criterion) {
    let config = ScalabilityConfig {
        stream_secs: 10,
        ..ScalabilityConfig::default()
    };
    let mut group = c.benchmark_group("handoff_threshold");
    group.sample_size(10);
    for threshold in [50usize, 100, 200, 400] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threshold),
            &threshold,
            |b, &t| b.iter(|| run_rtmp_cell(&config, t)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_handoff);
criterion_main!(benches);
