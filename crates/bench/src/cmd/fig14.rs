//! Fig 14 — server cost of RTMP vs HLS fan-out, 100–500 viewers.
//!
//! Reports deterministic operation/byte counts from the real servers, and
//! measures the wall-clock busy time of actually performing the fan-out
//! work in-process (our substitute for the paper's laptop CPU gauge).

use std::path::Path;
use std::time::Instant;

use livescope_analysis::{Figure, Series, Table};
use livescope_bench::{emit, emit_figure};
use livescope_core::scalability::{run, run_hls_cell, run_rtmp_cell, ScalabilityConfig};

#[expect(
    clippy::disallowed_methods,
    reason = "the measured busy-time table and figure (our substitute for the paper's CPU gauge); fig14_ops.txt beside it is clock-free"
)]
pub fn fig14(dir: &Path) {
    let config = ScalabilityConfig::default();
    let report = run(&config);
    emit(
        dir,
        "fig14_ops",
        &report.render(),
        &[("txt", report.render())],
    );

    // Wall-clock measurement: redo each cell, timing the work.
    let mut table = Table::new(["viewers", "RTMP busy (ms)", "HLS busy (ms)", "CPU ratio"]);
    let mut rtmp_series = Vec::new();
    let mut hls_series = Vec::new();
    for &v in &config.viewer_counts {
        let t0 = Instant::now();
        run_rtmp_cell(&config, v);
        let rtmp_ms = t0.elapsed().as_secs_f64() * 1e3;
        let t1 = Instant::now();
        run_hls_cell(&config, v);
        let hls_ms = t1.elapsed().as_secs_f64() * 1e3;
        table.row([
            v.to_string(),
            format!("{rtmp_ms:.1}"),
            format!("{hls_ms:.1}"),
            format!("{:.1}x", rtmp_ms / hls_ms.max(0.001)),
        ]);
        rtmp_series.push((v as f64, rtmp_ms));
        hls_series.push((v as f64, hls_ms));
    }
    let mut fig = Figure::new(
        "Fig 14 — measured fan-out busy time vs audience",
        "# of viewers",
        "busy time for the stream (ms)",
    );
    fig.push_series(Series::new("RTMP", rtmp_series));
    fig.push_series(Series::new("HLS", hls_series));
    emit_figure(dir, "fig14", &fig);
    println!("{}", table.render());
    println!(
        "paper: RTMP CPU ≫ HLS and the gap widens with viewers \
         (shape holds; absolute % depends on hardware)"
    );
}
