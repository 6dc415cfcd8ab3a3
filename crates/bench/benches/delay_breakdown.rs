//! Criterion bench over the Fig 11 controlled experiment: one full
//! RTMP+HLS run through the simulated delivery system.

use criterion::{criterion_group, criterion_main, Criterion};
use livescope_core::breakdown::{run, BreakdownConfig};

fn bench_breakdown(c: &mut Criterion) {
    let config = BreakdownConfig {
        repetitions: 1,
        stream_secs: 20,
        ..BreakdownConfig::default()
    };
    c.bench_function("breakdown_single_run_20s_stream", |b| {
        b.iter(|| {
            let report = run(&config);
            assert!(report.hls.total_s() > report.rtmp.total_s());
            report
        })
    });
}

criterion_group!(benches, bench_breakdown);
criterion_main!(benches);
