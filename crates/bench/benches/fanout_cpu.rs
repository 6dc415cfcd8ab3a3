//! The Fig 14 claim, measured directly by Criterion: the CPU cost of
//! fanning one stream out to N viewers over RTMP (per-frame push through
//! the real ingest server) vs HLS (poll + chunk serving through the real
//! edge POP). Expect RTMP to cost roughly an order of magnitude more per
//! stream-second, with the gap growing in N.

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use livescope_core::scalability::{run_hls_cell, run_rtmp_cell, ScalabilityConfig};

/// `(viewers, RTMP operations, HLS operations)` over the 10 s stream: the
/// exact, machine-independent half of Fig 14. Asserted before anything
/// is timed (and by CI's untimed pass), so a change to the push or poll
/// path that alters what the servers do fails here rather than showing
/// up as a faster number.
const PINNED_OPS: [(usize, u64, u64); 3] = [
    (100, 25_000, 764),
    (300, 75_000, 2_298),
    (500, 125_000, 3_830),
];

fn bench_fanout(c: &mut Criterion) {
    let config = ScalabilityConfig {
        stream_secs: 10,
        ..ScalabilityConfig::default()
    };
    let mut group = c.benchmark_group("fanout_cpu");
    group.sample_size(10);
    for (viewers, rtmp_ops, hls_ops) in PINNED_OPS {
        assert_eq!(run_rtmp_cell(&config, viewers).operations, rtmp_ops);
        assert_eq!(run_hls_cell(&config, viewers).operations, hls_ops);
        group.bench_with_input(BenchmarkId::new("rtmp", viewers), &viewers, |b, &v| {
            b.iter(|| run_rtmp_cell(&config, v))
        });
        group.bench_with_input(BenchmarkId::new("hls", viewers), &viewers, |b, &v| {
            b.iter(|| run_hls_cell(&config, v))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fanout);
criterion_main!(benches);
