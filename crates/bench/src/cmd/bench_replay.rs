//! Streaming-replay scale sweep: the Periscope study replayed at scale
//! divisors 1000 → 100 → 10 → 1 on the single-pass generate → crawl →
//! analyze path (`crates/workload/DESIGN.md`). Divisor 1 is the paper's own scale —
//! 12M users, ~19.6M broadcasts over 97 days — reachable since the
//! two-phase CSR graph build (DESIGN.md §12) took the follow graph off
//! the critical path. Results land in `BENCH_replay.json`
//! (`just bench-replay`).
//!
//! ```sh
//! cargo run --release -p livescope-bench -- bench_replay BENCH_replay.json
//! ```
//!
//! This is the tool's one shape: it measures and writes. What gates a
//! change is `cargo test` (this file's divisor-1000 pin below,
//! `parallel_replay`, `csr_regression`) and `bench_check` against
//! `baselines/`.
//!
//! Each divisor records two phases. `graph_build` is the follow-graph
//! construction: wall time, the generator's deterministic peak
//! build-buffer bytes, the finished graph's `resident_bytes()`, its
//! adjacency checksum, and the assembly worker count (always 1 in the
//! divisor sweep; `meta.host_parallelism` says what the host could do,
//! so single-core curves are self-describing). `replay` is the
//! streaming fold: wall time, broadcasts/sec, the mobile views
//! attributed (`mobile_views`, one weighted viewer pick each) with the
//! replay wall divided by them (`ns_per_mobile_view` — the whole fold's
//! cost per view, not the pick alone), and the *peak tracked
//! replay state* — `BroadcastStream::tracked_bytes()` +
//! `StreamingCampaign::tracked_bytes()`, sampled during the fold. That
//! state is O(users + days + sketch bins); the JSON also records what
//! a collect-then-scan replay would have pinned in memory
//! (`records × size_of::<BroadcastRecord>()`) so the gap is visible in
//! one file.
//!
//! The full run also records two scaling curves. `workers` is the
//! data-parallel replay curve (`crates/crawler/DESIGN.md`): the
//! divisor-10 campaign re-run through `run_campaign_sharded` for
//! K ∈ {1, 2, 4, 6} worker shards — **over the graph the divisor sweep
//! already built** (one build per `(spec, seed)`, reused across every
//! replay of that divisor) — asserted digest-identical to the
//! instrumented sequential fold for every K. `graph_workers` is the phase-2 assembly
//! curve (DESIGN.md §12): the divisor-10 graph rebuilt with K ∈
//! {2, 4, 6} assembly shards (the divisor sweep's own build is the K=1
//! point), asserted checksum-identical to K=1 before the file is
//! written.
//!
//! The run finishes with the top-5 handler histograms by total wall
//! time — the `handler.graph.{decide,rewire,assemble}_ns` build sections
//! recorded by every graph build above, plus the celebrity fan-out
//! workload's `handler.sharded.*` barrier sections.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use livescope_bench::graphbench::{timed_build, GraphBuildRun};
use livescope_bench::replay::{scaled_periscope, summary_digest, worker_sweep};
use livescope_bench::run_meta_json;
use livescope_crawler::campaign::CampaignConfig;
use livescope_crawler::streaming::DEFAULT_EXEMPLARS;
use livescope_crawler::{OutageFilter, StreamingCampaign};
use livescope_graph::DiGraph;
use livescope_sim::rng::splitmix64;
use livescope_telemetry::profile::SECTION_PREFIX;
use livescope_telemetry::Telemetry;
use livescope_workload::{
    default_graph_seed, default_graph_spec, generate_streaming, generate_streaming_with_graph,
    BroadcastRecord, ScenarioConfig,
};
use serde::{Deserialize, Serialize};
use serde_json::Value;

use crate::args::{Args, UsageError};
use crate::{hex, round_to, write_doc};

const DIVISORS: [f64; 4] = [1_000.0, 100.0, 10.0, 1.0];
/// Sampling stride for the peak-tracked-bytes watermark.
const MEM_SAMPLE_EVERY: u64 = 4_096;
/// Worker shard counts swept by the full run's scaling curves — replay
/// shards and graph assembly shards use the same ladder (divisor 10;
/// 6 matches the POP count of the fan-out benches).
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 6];
/// Divisor of the worker scaling curves: large enough (~2M broadcasts,
/// ~23M edges) that per-record / per-edge work dominates the barriers.
const WORKER_DIVISOR: f64 = 10.0;

/// Order-insensitive digest of one generated record (the campaign's
/// outage filter never sees it — the checksum pins the *generator*).
fn record_digest(r: &BroadcastRecord) -> u64 {
    splitmix64(
        splitmix64(r.id ^ (r.day as u64) << 40)
            ^ splitmix64(r.broadcaster as u64 ^ r.viewers.rotate_left(17))
            ^ splitmix64(r.hearts ^ r.comments.rotate_left(31) ^ r.followers.rotate_left(7))
            ^ r.duration.as_micros(),
    )
}

/// The `graph_build` phase of one divisor (a [`GraphBuildRun`] in the
/// document's key order; the degree checksum rides in `graph_workers`).
#[derive(Serialize, Deserialize)]
struct GraphBuild {
    wall_s: f64,
    peak_bytes: usize,
    resident_bytes: usize,
    edges: usize,
    max_in_degree: usize,
    swaps_applied: u64,
    adjacency_checksum: String,
    workers: usize,
}

/// One divisor of the sweep: a `runs` row of `BENCH_replay.json`.
#[derive(Serialize, Deserialize)]
struct ReplayRun {
    divisor: f64,
    users: usize,
    graph_build: GraphBuild,
    records: u64,
    /// Mobile views attributed across all records, missed days included:
    /// one weighted viewer pick each.
    mobile_views: u64,
    wall_s: f64,
    broadcasts_per_sec: f64,
    ns_per_mobile_view: f64,
    peak_tracked_bytes: usize,
    tracked_bytes_per_record: f64,
    materialized_record_bytes: u64,
    checksum: String,
    recorded: u64,
    missed: u64,
    /// Full-surface digest of the finished campaign
    /// ([`summary_digest`]); the worker sweep must reproduce it.
    summary_digest: String,
}

/// One K of the replay scaling curve (a `replay::WorkerRun` that matched).
#[derive(Serialize, Deserialize)]
struct WorkerRow {
    workers: usize,
    wall_s: f64,
    merge_wall_s: f64,
    barrier_wall_s: f64,
    records: u64,
    peak_tracked_bytes: usize,
    digest: String,
    matches_streaming: bool,
}

#[derive(Serialize, Deserialize)]
struct WorkerCurve {
    divisor: f64,
    runs: Vec<WorkerRow>,
}

/// One K of the assembly scaling curve (a [`GraphBuildRun`] that matched).
#[derive(Serialize, Deserialize)]
struct GraphWorkerRow {
    workers: usize,
    wall_s: f64,
    peak_bytes: usize,
    adjacency_checksum: String,
    degree_checksum: String,
    matches_sequential: bool,
}

/// `host_parallelism` rides along so a flat curve on a single-core host
/// reads as "no cores", not "no speedup".
#[derive(Serialize, Deserialize)]
struct GraphWorkerCurve {
    divisor: f64,
    host_parallelism: usize,
    runs: Vec<GraphWorkerRow>,
}

#[derive(Serialize, Deserialize)]
struct ProfileRow {
    name: String,
    count: u64,
    total_ns: u64,
    mean_ns: f64,
    p50_ns: f64,
    p99_ns: f64,
    max_ns: u64,
}

#[derive(Serialize, Deserialize)]
struct Workload {
    app: String,
    days: u32,
    mem_sample_every: u64,
}

/// The `BENCH_replay.json` document.
#[derive(Serialize, Deserialize)]
struct ReplayDoc {
    bench: String,
    meta: Value,
    workload: Workload,
    /// The divisor-1000 record checksum of the explicit-graph replay
    /// equals that of the stream-owned-graph path (`owned_graph_digest`).
    /// The key keeps the name it had when that path was a materialized
    /// record vector.
    divisor_1000_matches_materialized: bool,
    profile_top5: Vec<ProfileRow>,
    runs: Vec<ReplayRun>,
    workers: WorkerCurve,
    graph_workers: GraphWorkerCurve,
}

/// One streaming replay of the Periscope campaign at `divisor`,
/// instrumented with the record digest and the tracked-state watermark.
/// This is a one-shard `run_campaign_sharded` unrolled record by record
/// so the bench can observe the fold without perturbing it (same
/// filter → observe/miss order, so the RNG and accumulator states are
/// identical).
///
/// The follow graph is built explicitly (same spec and seed as the
/// stream's owned-graph path, so the workload is byte-identical) and
/// timed as its own `graph_build` phase — and **returned** with its
/// build record, so callers needing further replays of the same divisor
/// (the worker sweeps) reuse it instead of rebuilding per run.
fn replay(divisor: f64, telemetry: &Telemetry) -> (ReplayRun, GraphBuildRun, DiGraph) {
    let scenario = scaled_periscope(divisor);
    let campaign = CampaignConfig::periscope_study();

    let (graph, graph_build) = timed_build(
        &default_graph_spec(&scenario),
        default_graph_seed(&scenario),
        1,
        telemetry,
    );

    let t0 = Instant::now();
    let mut stream = generate_streaming_with_graph(&scenario, &graph);
    let mut filter = OutageFilter::new(&campaign);
    let mut acc =
        StreamingCampaign::new(&campaign, scenario.days, scenario.users, DEFAULT_EXEMPLARS);
    let mut checksum = 0u64;
    let mut records = 0u64;
    let mut mobile_views = 0u64;
    let mut peak = 0usize;
    while let Some(record) = stream.next() {
        checksum = checksum.wrapping_add(record_digest(&record));
        records += 1;
        mobile_views += record.mobile_viewers;
        if filter.observes(record.day) {
            acc.observe(record);
        } else {
            acc.miss();
        }
        if records.is_multiple_of(MEM_SAMPLE_EVERY) {
            peak = peak.max(stream.tracked_bytes() + acc.tracked_bytes());
        }
    }
    peak = peak.max(stream.tracked_bytes() + acc.tracked_bytes());
    let summary = acc.finish(stream.into_summary());
    let wall_s = t0.elapsed().as_secs_f64();
    let run = ReplayRun {
        divisor,
        users: scenario.users,
        graph_build: GraphBuild {
            wall_s: round_to(graph_build.wall_s, 3),
            peak_bytes: graph_build.peak_bytes,
            resident_bytes: graph_build.resident_bytes,
            edges: graph_build.edges,
            max_in_degree: graph_build.max_in_degree,
            swaps_applied: graph_build.swaps_applied,
            adjacency_checksum: hex(graph_build.adjacency_checksum),
            workers: graph_build.workers,
        },
        records,
        mobile_views,
        wall_s: round_to(wall_s, 3),
        broadcasts_per_sec: round_to(records as f64 / wall_s.max(1e-9), 0),
        ns_per_mobile_view: round_to(wall_s * 1e9 / mobile_views.max(1) as f64, 1),
        peak_tracked_bytes: peak,
        tracked_bytes_per_record: round_to(peak as f64 / records.max(1) as f64, 2),
        materialized_record_bytes: records * std::mem::size_of::<BroadcastRecord>() as u64,
        checksum: hex(checksum),
        recorded: summary.broadcasts(),
        missed: summary.missed,
        summary_digest: hex(summary_digest(&summary)),
    };
    (run, graph_build, graph)
}

/// Runs the replay worker K-sweep at `divisor` against a shared
/// pre-built graph, asserts every K reproduces `expected_digest`, and
/// prints one line per K. Returns the rows of the JSON scaling curve.
fn sweep_workers(
    divisor: f64,
    graph: &DiGraph,
    workers: &[usize],
    expected_digest: &str,
) -> Vec<WorkerRow> {
    let scenario = scaled_periscope(divisor);
    let campaign = CampaignConfig::periscope_study();
    let runs = worker_sweep(&scenario, &campaign, graph, workers);
    for r in &runs {
        assert_eq!(
            hex(r.digest),
            expected_digest,
            "K={} sharded digest diverged from the sequential streaming path at divisor {divisor}",
            r.workers
        );
        println!(
            "workers={}: {} broadcasts in {:.2}s ({:.0}/s), merge {:.1}ms, \
             barriers {:.1}ms, peak tracked {:.1} MiB, digest {:#018x}",
            r.workers,
            r.records,
            r.wall_s,
            r.records as f64 / r.wall_s.max(1e-9),
            r.merge_wall_s * 1e3,
            r.barrier_wall_s * 1e3,
            r.peak_tracked_bytes as f64 / (1024.0 * 1024.0),
            r.digest,
        );
    }
    runs.iter()
        .map(|r| WorkerRow {
            workers: r.workers,
            wall_s: round_to(r.wall_s, 3),
            merge_wall_s: round_to(r.merge_wall_s, 4),
            barrier_wall_s: round_to(r.barrier_wall_s, 4),
            records: r.records,
            peak_tracked_bytes: r.peak_tracked_bytes,
            digest: hex(r.digest),
            matches_streaming: true,
        })
        .collect()
}

fn print_graph_run(r: &GraphBuildRun) {
    println!(
        "graph workers={}: {} edges in {:.2}s (peak build {:.1} MiB, resident {:.1} MiB), \
         adjacency {:#018x}, degree {:#018x}",
        r.workers,
        r.edges,
        r.wall_s,
        r.peak_bytes as f64 / (1024.0 * 1024.0),
        r.resident_bytes as f64 / (1024.0 * 1024.0),
        r.adjacency_checksum,
        r.degree_checksum,
    );
}

/// The record checksum of the stream-owned-graph path at `divisor`, so
/// it cross-checks the explicit `graph_build` construction above.
fn owned_graph_digest(divisor: f64) -> u64 {
    generate_streaming(&scaled_periscope(divisor))
        .fold(0u64, |acc, r| acc.wrapping_add(record_digest(&r)))
}

/// Top-5 handler histograms by total wall time, as report lines and
/// JSON rows. `telemetry` already carries the `handler.graph.*`
/// sections recorded by every graph build of the run; the celebrity
/// fan-out workload is run on the same handle so its `handler.sharded.*`
/// sections land in the same snapshot.
fn profile_report(telemetry: &Telemetry) -> (Vec<String>, Vec<ProfileRow>) {
    // The celebrity-broadcast workload of bench_shards, single-lane so
    // the single-threaded per-event numbers are comparable run to run.
    let config = super::bench_shards::workload();
    livescope_cdn::run_fanout(&config, 1, telemetry);
    let snapshot = telemetry.snapshot();
    let mut hists: Vec<_> = snapshot
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with(SECTION_PREFIX))
        .collect();
    hists.sort_by(|a, b| b.1.sum.cmp(&a.1.sum).then_with(|| a.0.cmp(&b.0)));
    let mut lines = vec![format!(
        "top handler histograms (graph build phases + celebrity_broadcast, \
         {} viewers, {}s stream):",
        config.pops.len() * config.viewers_per_pop,
        config.stream_secs
    )];
    let mut json = Vec::new();
    for (name, h) in hists.into_iter().take(5) {
        lines.push(format!(
            "  {name:<32} count={:>7} total={:>6.1}ms mean={:>7.0}ns p50={:>7.0}ns p99={:>8.0}ns max={}ns",
            h.count,
            h.sum as f64 / 1e6,
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.99),
            h.max,
        ));
        json.push(ProfileRow {
            name: name.clone(),
            count: h.count,
            total_ns: h.sum,
            mean_ns: round_to(h.mean(), 0),
            p50_ns: round_to(h.quantile(0.5), 0),
            p99_ns: round_to(h.quantile(0.99), 0),
            max_ns: h.max,
        });
    }
    (lines, json)
}

fn print_run(run: &ReplayRun) {
    println!(
        "divisor {}: graph {} edges in {:.2}s (peak build {:.1} MiB, resident {:.1} MiB); \
         {} broadcasts in {:.2}s ({:.0}/s), peak tracked {:.1} MiB \
         (materialized records would be {:.1} MiB)",
        run.divisor,
        run.graph_build.edges,
        run.graph_build.wall_s,
        run.graph_build.peak_bytes as f64 / (1024.0 * 1024.0),
        run.graph_build.resident_bytes as f64 / (1024.0 * 1024.0),
        run.records,
        run.wall_s,
        run.broadcasts_per_sec,
        run.peak_tracked_bytes as f64 / (1024.0 * 1024.0),
        run.materialized_record_bytes as f64 / (1024.0 * 1024.0),
    );
}

pub fn run(mut args: Args, _results: &Path) -> Result<ExitCode, UsageError> {
    let out = args.positional();
    args.finish()?;

    // One telemetry handle for the whole run: every graph build's
    // `handler.graph.*` sections accumulate here, and the profile
    // report's fan-out workload lands on the same handle.
    let telemetry = Telemetry::recording(1024);

    // Divisor 1000 is cross-checked against the stream-owned-graph path.
    let (base, _, _) = replay(1_000.0, &telemetry);
    print_run(&base);
    assert_eq!(
        base.checksum,
        hex(owned_graph_digest(1_000.0)),
        "the explicit graph build diverged from the stream-owned graph at divisor 1000"
    );

    let mut runs = vec![base];
    // The worker-divisor graph is kept alive for both scaling curves —
    // the replay K-sweep reuses it outright, and the graph K-sweep uses
    // its build as the K=1 point.
    let mut worker_graph: Option<(GraphBuildRun, DiGraph)> = None;
    for &divisor in &DIVISORS[1..] {
        let (run, graph_build, graph) = replay(divisor, &telemetry);
        print_run(&run);
        runs.push(run);
        if divisor == WORKER_DIVISOR {
            worker_graph = Some((graph_build, graph));
        }
    }

    // Replay worker scaling curve at divisor 10, anchored to the
    // sequential streaming digest the divisor sweep just produced, over
    // the graph it already built.
    let expected = runs
        .iter()
        .find(|r| r.divisor == WORKER_DIVISOR)
        .expect("worker divisor is part of the sweep")
        .summary_digest
        .clone();
    let (sequential_build, worker_graph) =
        worker_graph.expect("worker divisor is part of the sweep");
    let worker_runs = sweep_workers(WORKER_DIVISOR, &worker_graph, &WORKER_SWEEP, &expected);
    drop(worker_graph);

    // Graph assembly scaling curve at the same divisor: rebuilds at
    // K ∈ {2, 4, 6} (each build is the thing being timed), with the
    // divisor sweep's own K=1 build as the anchor point — asserted
    // checksum-identical before anything is written.
    let scenario = scaled_periscope(WORKER_DIVISOR);
    let mut graph_runs = vec![sequential_build];
    for &k in WORKER_SWEEP.iter().filter(|&&k| k != 1) {
        let (_, r) = timed_build(
            &default_graph_spec(&scenario),
            default_graph_seed(&scenario),
            k,
            &telemetry,
        );
        assert_eq!(
            r.adjacency_checksum, graph_runs[0].adjacency_checksum,
            "K={k} assembly diverged from the sequential build (adjacency)"
        );
        assert_eq!(
            r.degree_checksum, graph_runs[0].degree_checksum,
            "K={k} assembly diverged from the sequential build (degree)"
        );
        assert_eq!(
            r.peak_bytes, graph_runs[0].peak_bytes,
            "K={k} peak_bytes diverged from the sequential build"
        );
        print_graph_run(&r);
        graph_runs.push(r);
    }

    let (profile_lines, profile_top5) = profile_report(&telemetry);
    for line in &profile_lines {
        println!("{line}");
    }

    let study = ScenarioConfig::periscope_study();
    let doc = ReplayDoc {
        bench: "streaming_replay".into(),
        meta: run_meta_json(study.seed),
        workload: Workload {
            app: "Periscope".into(),
            days: study.days,
            mem_sample_every: MEM_SAMPLE_EVERY,
        },
        divisor_1000_matches_materialized: true,
        profile_top5,
        runs,
        workers: WorkerCurve {
            divisor: WORKER_DIVISOR,
            runs: worker_runs,
        },
        graph_workers: GraphWorkerCurve {
            divisor: WORKER_DIVISOR,
            host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            runs: graph_runs
                .iter()
                .map(|r| GraphWorkerRow {
                    workers: r.workers,
                    wall_s: round_to(r.wall_s, 3),
                    peak_bytes: r.peak_bytes,
                    adjacency_checksum: hex(r.adjacency_checksum),
                    degree_checksum: hex(r.degree_checksum),
                    matches_sequential: true,
                })
                .collect(),
        },
    };
    write_doc(out.as_deref().unwrap_or("BENCH_replay.json"), &doc);
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_bench_replay_fits_the_writer() {
        let committed = include_str!("../../../../BENCH_replay.json");
        serde_json::from_str::<super::ReplayDoc>(committed).expect("fits ReplayDoc");
    }

    /// The divisor-1000 record checksum: the explicit-graph replay equals
    /// the stream-owned-graph path **and** the committed value, so a
    /// change that moves both paths together is still seen. The same
    /// divisor's graph checksums are pinned in `csr_regression`
    /// (K = 1, 2, 6) and `baselines/GRAPH_build.json`.
    #[test]
    fn divisor_1000_records_match_the_owned_graph_path_and_the_pin() {
        let (run, _, _) = replay(1_000.0, &Telemetry::disabled());
        assert_eq!(run.checksum, hex(owned_graph_digest(1_000.0)));
        assert_eq!(run.checksum, hex(0x364b4c5590d94b2b));
    }
}
