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
//! `replay::tests`, `csr_regression`) and `bench_check` against
//! `baselines/`.
//!
//! Each divisor records two phases. `graph_build` is the follow-graph
//! construction: wall time, the generator's deterministic peak
//! build-buffer bytes, the finished graph's `resident_bytes()` and its
//! adjacency checksum. `replay` is the streaming fold: wall time, broadcasts/sec, the mobile views
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
//! The tool times no worker counts: the campaign fold and the graph
//! build each run on one thread.
//!
//! The run finishes with the top-5 handler histograms by total wall
//! time — the `handler.graph.{decide,rewire,assemble}_ns` build sections
//! recorded by every graph build above, plus the celebrity fan-out
//! workload's `handler.sharded.*` barrier sections.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use livescope_bench::replay::{scaled_periscope, summary_digest};
use livescope_bench::run_meta_json;
use livescope_crawler::campaign::CampaignConfig;
use livescope_crawler::streaming::DEFAULT_EXEMPLARS;
use livescope_crawler::{OutageFilter, StreamingCampaign};
use livescope_graph::{BuildOptions, BuildProfile, DiGraph};
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

/// The `graph_build` phase of one divisor.
#[derive(Serialize, Deserialize)]
struct GraphBuild {
    wall_s: f64,
    peak_bytes: usize,
    resident_bytes: usize,
    edges: usize,
    max_in_degree: usize,
    swaps_applied: u64,
    adjacency_checksum: String,
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
    /// ([`summary_digest`]); `run_campaign_streaming` must reproduce it.
    summary_digest: String,
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
}

/// One streaming replay of the Periscope campaign at `divisor`,
/// instrumented with the record digest and the tracked-state watermark.
/// This is `run_campaign_streaming`'s loop with a record digest and a
/// memory watermark added, so the bench can observe the fold without
/// perturbing it (same filter → observe/miss order, so the RNG and
/// accumulator states are identical).
///
/// The follow graph is built explicitly (same spec and seed as the
/// stream's owned-graph path, so the workload is byte-identical) and
/// timed as its own `graph_build` phase, recording the
/// `handler.graph.*` phase sections on `telemetry` (inert when it is
/// disabled). The graph crate itself reads no clock.
#[expect(
    clippy::disallowed_methods,
    reason = "the graph-build and streaming-fold walls per divisor for BENCH_replay.json"
)]
fn replay(divisor: f64, telemetry: &Telemetry) -> ReplayRun {
    let scenario = scaled_periscope(divisor);
    let campaign = CampaignConfig::periscope_study();

    let options = BuildOptions::new().with_profile(BuildProfile::new(telemetry));
    let t0 = Instant::now();
    let (graph, build) = DiGraph::generate_with(
        &default_graph_spec(&scenario),
        default_graph_seed(&scenario),
        &options,
    );
    let graph_build = GraphBuild {
        wall_s: round_to(t0.elapsed().as_secs_f64(), 3),
        peak_bytes: build.peak_bytes,
        resident_bytes: graph.resident_bytes(),
        edges: build.edges,
        max_in_degree: graph.degrees().max_in_degree(),
        swaps_applied: build.swaps_applied,
        adjacency_checksum: hex(graph.adjacency_checksum()),
    };

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
    ReplayRun {
        divisor,
        users: scenario.users,
        graph_build,
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
    }
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
    // A 1,500-viewer celebrity broadcast (the workload pinned by
    // `sharded_determinism`'s lane-sweep test), single-lane so the
    // per-event numbers are comparable run to run.
    let config = livescope_cdn::FanoutConfig {
        viewers_per_pop: 250,
        stream_secs: 120,
        roam_every: 5,
        seed: 0xF1610,
        ..livescope_cdn::FanoutConfig::default()
    };
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
    let base = replay(1_000.0, &telemetry);
    print_run(&base);
    assert_eq!(
        base.checksum,
        hex(owned_graph_digest(1_000.0)),
        "the explicit graph build diverged from the stream-owned graph at divisor 1000"
    );

    let mut runs = vec![base];
    for &divisor in &DIVISORS[1..] {
        let run = replay(divisor, &telemetry);
        print_run(&run);
        runs.push(run);
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
    };
    write_doc(out.as_deref().unwrap_or("BENCH_replay.json"), &doc);
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMMITTED: &str = include_str!("../../../../BENCH_replay.json");

    #[test]
    fn committed_bench_replay_fits_the_writer() {
        serde_json::from_str::<super::ReplayDoc>(COMMITTED).expect("fits ReplayDoc");
    }

    /// Replays `divisor` and asserts that every deterministic field of
    /// the committed `BENCH_replay.json` row equals the fresh run's, so a
    /// change that moves what the file reports without regenerating it
    /// is seen. Host times (`wall_s`, rates) are not compared.
    fn assert_row_matches_a_fresh_run(divisor: f64) -> ReplayRun {
        let run = replay(divisor, &Telemetry::disabled());
        let doc: ReplayDoc = serde_json::from_str(COMMITTED).expect("fits ReplayDoc");
        let pin = doc
            .runs
            .iter()
            .find(|r| r.divisor == divisor)
            .unwrap_or_else(|| panic!("a divisor-{divisor} row"));
        let replay_facts = |r: &ReplayRun| {
            (
                r.records,
                r.mobile_views,
                r.peak_tracked_bytes,
                r.recorded,
                r.missed,
                r.checksum.clone(),
                r.summary_digest.clone(),
            )
        };
        assert_eq!(replay_facts(&run), replay_facts(pin), "divisor {divisor}");
        let graph_facts = |g: &GraphBuild| {
            (
                g.peak_bytes,
                g.resident_bytes,
                g.edges,
                g.max_in_degree,
                g.swaps_applied,
                g.adjacency_checksum.clone(),
            )
        };
        assert_eq!(
            graph_facts(&run.graph_build),
            graph_facts(&pin.graph_build),
            "divisor {divisor}"
        );
        run
    }

    /// The divisor-1000 replay: its record checksum equals the
    /// stream-owned-graph path's, and its row equals the committed one,
    /// so a change that moves both paths together is seen too. The same
    /// divisor's graph checksums are also pinned in `csr_regression`
    /// and `baselines/GRAPH_build.json`.
    #[test]
    fn divisor_1000_records_match_the_owned_graph_path_and_the_pin() {
        let run = assert_row_matches_a_fresh_run(1_000.0);
        assert_eq!(run.checksum, hex(owned_graph_digest(1_000.0)));
    }

    /// The divisor-100 row (120k users, ~200k records), the second scale
    /// at which the committed file is held exact. About a second of build
    /// and replay in release and far longer in debug, so the debug
    /// `cargo test` leaves it out and `scripts/ci.sh` runs it in release.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release only: scripts/ci.sh runs it")]
    fn divisor_100_row_matches_a_fresh_run() {
        assert_row_matches_a_fresh_run(100.0);
    }
}
