//! # livescope-bench — figure/table regeneration harness
//!
//! One `livescope` binary with one subcommand per paper artifact
//! (`tab1`, `tab2`, `fig1` … `fig18`, `crawler_coverage`, …) and per
//! bench/observability tool, plus the Criterion micro-benches in
//! `benches/`. Every artifact prints to stdout and drops
//! machine-readable copies (CSV and, for figures, JSON) under `results/`.
//!
//! Run any of them with e.g.
//! `cargo run -p livescope-bench --release -- fig11`; `-- all`
//! regenerates every paper artifact.

pub mod obs;
pub mod regress;
pub mod replay;

use std::fs;
use std::path::Path;

use livescope_analysis::Figure;
use serde::Serialize;
use serde_json::Value;

#[derive(Serialize)]
struct RunMeta {
    host_parallelism: usize,
    cargo_profile: &'static str,
    seed: u64,
    sim_version: &'static str,
}

/// Shared run metadata stamped into every `BENCH_*.json` /
/// `OBS_report.json` this crate writes, as one JSON object:
/// host parallelism, cargo profile, the workload seed, and the sim
/// version. One helper so every writer agrees on the schema.
///
/// These fields describe the *machine and build*, not the simulation —
/// the bench-regression gate must never compare them across hosts
/// (see [`regress`]).
pub fn run_meta_json(seed: u64) -> Value {
    let meta = RunMeta {
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cargo_profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        seed,
        sim_version: env!("CARGO_PKG_VERSION"),
    };
    meta.to_value()
}

/// A `u64` digest as the `"0x…"` string every JSON document here holds:
/// u64 exceeds f64's integer range, so it must not travel as a number.
pub fn hex(digest: u64) -> String {
    format!("{digest:#018x}")
}

/// `x` at the fixed number of decimals its JSON field has always had.
pub fn round_to(x: f64, decimals: i32) -> f64 {
    let scale = 10f64.powi(decimals);
    (x * scale).round() / scale
}

/// Prints the ASCII artifact and persists named sidecar files under `dir`.
pub fn emit(dir: &Path, name: &str, ascii: &str, sidecars: &[(&str, String)]) {
    println!("{ascii}");
    fs::create_dir_all(dir).expect("can create results directory");
    for (ext, content) in sidecars {
        let path = dir.join(format!("{name}.{ext}"));
        fs::write(&path, content).expect("can write artifact");
        println!("[wrote {}]", path.display());
    }
}

/// Emits a figure: ASCII chart + CSV + JSON.
pub fn emit_figure(dir: &Path, name: &str, fig: &Figure) {
    emit(
        dir,
        name,
        &fig.render_ascii(84, 20),
        &[("csv", fig.to_csv()), ("json", fig.to_json())],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use livescope_analysis::Series;

    #[test]
    fn emit_writes_sidecars() {
        let dir = std::env::temp_dir().join(format!("livescope-bench-{}", std::process::id()));
        let mut fig = Figure::new("t", "x", "y");
        fig.push_series(Series::new("s", vec![(0.0, 0.0), (1.0, 1.0)]));
        emit_figure(&dir, "unit_test_fig", &fig);
        assert!(dir.join("unit_test_fig.csv").exists());
        assert!(dir.join("unit_test_fig.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
