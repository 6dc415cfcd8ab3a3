//! Wall-clock comparison of the sharded scheduler's lane counts on the
//! celebrity fan-out workload (`livescope_cdn::run_fanout`: one shard per
//! POP, viewers roaming between POPs through the inter-lane mailboxes).
//! Results land in `BENCH_shards.json` (`just bench-shards`).
//!
//! ```sh
//! cargo run --release -p livescope-bench --bin bench_shards -- BENCH_shards.json
//! # CI smoke variant (tiny workload, asserts lane-count invariance):
//! cargo run --release -p livescope-bench --bin bench_shards -- --smoke
//! ```
//!
//! Every run records the workload checksum, so the file doubles as a
//! determinism record: all lane counts must report the same checksum, and
//! the binary exits non-zero if they don't. `host_parallelism` is
//! recorded because the wall-clock ratio is only meaningful when the
//! host has cores to run the worker threads on — on a single-core host
//! the honest expectation is a ratio near 1.0.

#![forbid(unsafe_code)]

use std::time::Instant;

use livescope_bench::run_meta_json;
use livescope_cdn::{run_fanout, FanoutConfig};
use livescope_telemetry::Telemetry;

const ITERATIONS: usize = 3;
const LANES: [usize; 3] = [1, 2, 6];

fn workload(smoke: bool) -> FanoutConfig {
    // The divisor shrinks the stream and audience for the CI smoke run
    // while keeping every mechanism (polls, serves, roams) exercised.
    let div = if smoke { 10 } else { 1 };
    FanoutConfig {
        viewers_per_pop: 250 / div,
        stream_secs: 120 / div as u64,
        roam_every: 5,
        seed: 0xF1610,
        ..FanoutConfig::default()
    }
}

struct LaneRun {
    lanes: usize,
    wall_us_mean: u128,
    wall_us_min: u128,
    checksum: u64,
    chunks_served: u64,
    events_fired: u64,
}

fn bench_lanes(config: &FanoutConfig, lanes: usize) -> LaneRun {
    let mut samples: Vec<u128> = Vec::with_capacity(ITERATIONS);
    let mut report = None;
    for _ in 0..ITERATIONS {
        let t0 = Instant::now();
        report = Some(run_fanout(config, lanes, &Telemetry::disabled()));
        samples.push(t0.elapsed().as_micros());
    }
    let report = report.expect("at least one iteration");
    LaneRun {
        lanes,
        wall_us_mean: samples.iter().sum::<u128>() / samples.len() as u128,
        wall_us_min: *samples.iter().min().expect("samples"),
        checksum: report.checksum,
        chunks_served: report.chunks_served(),
        events_fired: report.events_fired,
    }
}

fn main() {
    let mut out = "BENCH_shards.json".to_string();
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            flag if flag.starts_with("--") => {
                eprintln!("usage: bench_shards [--smoke] [OUT.json]");
                std::process::exit(2);
            }
            other => out = other.to_string(),
        }
    }
    let config = workload(smoke);
    let runs: Vec<LaneRun> = LANES.iter().map(|&l| bench_lanes(&config, l)).collect();

    let checksum = runs[0].checksum;
    let invariant = runs.iter().all(|r| r.checksum == checksum);
    let host_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = runs[0].wall_us_min as f64 / runs.last().expect("runs").wall_us_min.max(1) as f64;

    let run_lines: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "{{\"lanes\":{},\"wall_us_mean\":{},\"wall_us_min\":{},\
                 \"checksum\":\"{:#018x}\",\"chunks_served\":{},\"events_fired\":{}}}",
                r.lanes, r.wall_us_mean, r.wall_us_min, r.checksum, r.chunks_served, r.events_fired
            )
        })
        .collect();
    let doc = format!(
        "{{\"bench\":\"sharded_fanout\",\"meta\":{},\"workload\":{{\"pops\":{},\
         \"viewers_per_pop\":{},\"stream_secs\":{},\"roam_every\":{},\
         \"iterations\":{ITERATIONS},\"smoke\":{smoke}}},\
         \"host_parallelism\":{host_parallelism},\
         \"speedup_1_to_{}\":{speedup:.3},\"runs\":[{}]}}\n",
        run_meta_json(config.seed),
        config.pops.len(),
        config.viewers_per_pop,
        config.stream_secs,
        config.roam_every,
        LANES[LANES.len() - 1],
        run_lines.join(",")
    );

    for r in &runs {
        println!(
            "lanes={}: mean {}us (min {}us), {} chunk serves, checksum {:#018x}",
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
    if smoke {
        println!("smoke: checksum invariant across lanes {LANES:?} holds");
        return;
    }
    std::fs::write(&out, &doc).expect("write bench file");
    println!("wrote {out}");
}
