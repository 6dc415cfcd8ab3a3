//! Polling-interval ablation: cost of the Fig 12/13 trace-driven
//! simulation per interval, plus the request-rate consequence (shorter
//! intervals mean proportionally more requests to serve).

#![forbid(unsafe_code)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use livescope_core::polling::{run, PollingConfig};
use livescope_core::scalability::{run_hls_cell, ScalabilityConfig};

/// `(interval, operations)`: chunklist polls plus chunk serves a real edge
/// POP performs for 100 viewers of the 30 s Fig 14 stream at each poll
/// interval. The chunk serves are the same 900 every time, so the spread
/// is polls served — the request-rate consequence, exact. Asserted
/// before anything is timed (and by CI's untimed pass), so a poll-path
/// change that alters what the edge serves fails here.
const PINNED_EDGE_OPS: [(f64, u64); 4] = [(1.0, 4_200), (2.0, 2_550), (3.0, 2_000), (4.0, 1_721)];

fn bench_poll_interval(c: &mut Criterion) {
    let mut group = c.benchmark_group("poll_interval");
    for (interval, edge_ops) in PINNED_EDGE_OPS {
        let edge = ScalabilityConfig {
            poll_interval_s: interval,
            ..ScalabilityConfig::default()
        };
        assert_eq!(run_hls_cell(&edge, 100).operations, edge_ops);
        let config = PollingConfig {
            broadcasts: 1_000,
            intervals_s: vec![interval],
            ..PollingConfig::default()
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{interval}s")),
            &config,
            |b, cfg| {
                b.iter(|| {
                    let report = run(cfg);
                    assert_eq!(report.mean_cdfs.len(), 1);
                    report
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_poll_interval);
criterion_main!(benches);
