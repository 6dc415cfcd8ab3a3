//! Wall-clock comparison of the sharded scheduler's lane counts on the
//! celebrity fan-out workload (`livescope_cdn::run_fanout`: one shard per
//! POP, viewers roaming between POPs through the inter-lane mailboxes).
//! Results land in `BENCH_shards.json` (`just bench-shards`).
//!
//! ```sh
//! cargo run --release -p livescope-bench -- bench_shards BENCH_shards.json
//! ```
//!
//! Every run records the workload checksum, so the file doubles as a
//! determinism record: all lane counts must report the same checksum, and
//! the command exits non-zero if they don't. `host_parallelism` is
//! recorded because the wall-clock ratio is only meaningful when the
//! host has cores to run the worker threads on — on a single-core host
//! the honest expectation is a ratio near 1.0.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use livescope_bench::run_meta_json;
use livescope_cdn::{run_fanout, FanoutConfig};
use livescope_telemetry::Telemetry;
use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::args::{Args, UsageError};
use crate::{hex, round_to, write_doc};

const ITERATIONS: usize = 3;
const LANES: [usize; 3] = [1, 2, 6];

pub fn workload() -> FanoutConfig {
    FanoutConfig {
        viewers_per_pop: 250,
        stream_secs: 120,
        roam_every: 5,
        seed: 0xF1610,
        ..FanoutConfig::default()
    }
}

#[derive(Serialize, Deserialize)]
struct LaneRun {
    lanes: usize,
    wall_us_mean: u64,
    wall_us_min: u64,
    checksum: String,
    chunks_served: u64,
    events_fired: u64,
}

#[derive(Serialize, Deserialize)]
struct Workload {
    pops: usize,
    viewers_per_pop: usize,
    stream_secs: u64,
    roam_every: u32,
    iterations: usize,
    /// Always `false`; the key stays so `BENCH_shards.json` keeps its schema.
    smoke: bool,
}

/// The `BENCH_shards.json` document.
#[derive(Serialize, Deserialize)]
struct ShardsDoc {
    bench: String,
    meta: Value,
    workload: Workload,
    host_parallelism: usize,
    speedup_1_to_6: f64,
    runs: Vec<LaneRun>,
}

#[expect(
    clippy::disallowed_methods,
    reason = "the per-lane-count fan-out wall for BENCH_shards.json"
)]
fn bench_lanes(config: &FanoutConfig, lanes: usize) -> LaneRun {
    let mut samples: Vec<u64> = Vec::with_capacity(ITERATIONS);
    let mut report = None;
    for _ in 0..ITERATIONS {
        let t0 = Instant::now();
        report = Some(run_fanout(config, lanes, &Telemetry::disabled()));
        samples.push(t0.elapsed().as_micros() as u64);
    }
    let report = report.expect("at least one iteration");
    LaneRun {
        lanes,
        wall_us_mean: samples.iter().sum::<u64>() / samples.len() as u64,
        wall_us_min: *samples.iter().min().expect("samples"),
        checksum: hex(report.checksum),
        chunks_served: report.chunks_served(),
        events_fired: report.events_fired,
    }
}

pub fn run(mut args: Args, _results: &Path) -> Result<ExitCode, UsageError> {
    let out = args.positional();
    args.finish()?;
    let config = workload();
    let runs: Vec<LaneRun> = LANES.iter().map(|&l| bench_lanes(&config, l)).collect();

    let invariant = runs.iter().all(|r| r.checksum == runs[0].checksum);
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = runs[0].wall_us_min as f64 / runs.last().expect("runs").wall_us_min.max(1) as f64;

    for r in &runs {
        println!(
            "lanes={}: mean {}us (min {}us), {} chunk serves, checksum {}",
            r.lanes, r.wall_us_mean, r.wall_us_min, r.chunks_served, r.checksum
        );
    }
    println!(
        "host_parallelism={host_parallelism} speedup(1→{} lanes)={speedup:.2}x",
        LANES[LANES.len() - 1]
    );
    assert!(
        invariant,
        "checksum differs across lane counts — determinism contract broken"
    );
    let doc = ShardsDoc {
        bench: "sharded_fanout".into(),
        meta: run_meta_json(config.seed),
        workload: Workload {
            pops: config.pops.len(),
            viewers_per_pop: config.viewers_per_pop,
            stream_secs: config.stream_secs,
            roam_every: config.roam_every,
            iterations: ITERATIONS,
            smoke: false,
        },
        host_parallelism,
        speedup_1_to_6: round_to(speedup, 3),
        runs,
    };
    write_doc(out.as_deref().unwrap_or("BENCH_shards.json"), &doc);
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    #[test]
    fn committed_bench_shards_fits_the_writer() {
        let committed = include_str!("../../../../BENCH_shards.json");
        serde_json::from_str::<super::ShardsDoc>(committed).expect("fits ShardsDoc");
    }
}
