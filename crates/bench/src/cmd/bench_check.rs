//! `bench_check` — the bench-regression gate (DESIGN.md §11; report
//! schema in `crates/telemetry/DESIGN.md`).
//!
//! Regenerates the deterministic observability artifact (the
//! `OBS_report.json` document: breakdown + celebrity reports plus the
//! fan-out's delivery checksum) and compares it metric-by-metric
//! against the committed baseline under `baselines/`, with per-metric
//! tolerances. Any drift prints one line per violated metric and exits
//! non-zero, failing CI.
//!
//! It also regenerates the `GRAPH_build.json` artifact — the divisor-1000
//! replay follow graph rebuilt from scratch — and gates its deterministic
//! build facts (checksums, edge count, peak build-buffer bytes, resident
//! CSR bytes, rewire swap count) the same way, so a change to the
//! two-phase CSR generator (DESIGN.md §12) that shifts the emitted graph
//! *or its memory anatomy* fails CI with a named metric.
//!
//! The third artifact, `REPLAY_workers.json`, is the data-parallel
//! replay's identity certificate (DESIGN.md §13): the divisor-1000
//! Periscope campaign folded through K ∈ {1, 2, 6} worker shards, each
//! digested over the full observable summary surface. The gate pins
//! every per-K digest and the record count, so a merge-order or
//! partition bug that shifts any figure input fails CI with the K that
//! produced it.
//!
//! ```text
//! livescope bench_check                     compare a fresh run against baselines/
//! livescope bench_check --write-baselines   (re)create the baseline files
//! ```
//!
//! Only simulation-deterministic quantities are gated: event and span
//! counts, sim-time delay means, the delivery checksum. Wall-clock
//! benchmark numbers and the `meta` block (host parallelism, cargo
//! profile) vary by machine and are deliberately absent from the spec
//! list — with one deliberate exception: `graph_build.wall_s` carries a
//! ±300% anti-catastrophe canary (see `GRAPH_GATE`) that only trips when
//! the build gets *ruinously* slower, not on host jitter. Override the
//! baseline directory with `LIVESCOPE_BASELINES`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use livescope_bench::obs;
use livescope_bench::regress::{self, MetricSpec};
use livescope_graph::DiGraph;
use livescope_workload::{default_graph_seed, default_graph_spec, ScenarioConfig};
use serde::Serialize;
use serde_json::Value;

use crate::args::{Args, UsageError};
use crate::{hex, json_line, round_to};

/// The gated metrics. Counts and checksums are exact; sim-time delay
/// means get a 2% allowance so a deliberate, reviewed re-tuning of a
/// model constant can land alongside a refreshed baseline without
/// tripping on every intermediate commit.
const GATE: &[MetricSpec] = &[
    MetricSpec::exact("breakdown.events"),
    MetricSpec::exact("breakdown.spans.opens"),
    MetricSpec::exact("breakdown.spans.closes"),
    MetricSpec::exact("breakdown.spans.unclosed"),
    MetricSpec::exact("breakdown.spans.unmatched_closes"),
    MetricSpec::rel("breakdown.qoe.rtmp.join_mean_s", 0.02),
    MetricSpec::rel("breakdown.qoe.hls.join_mean_s", 0.02),
    MetricSpec::rel("breakdown.qoe.hls.stall_mean_s", 0.02),
    MetricSpec::rel("breakdown.pops.0.total_mean_s", 0.02),
    MetricSpec::exact("breakdown.waterfalls.0.total_us"),
    MetricSpec::exact("celebrity.events"),
    MetricSpec::exact("celebrity.spans.opens"),
    MetricSpec::exact("celebrity.spans.closes"),
    MetricSpec::exact("celebrity.spans.unclosed"),
    MetricSpec::exact("celebrity.spans.unmatched_closes"),
    MetricSpec::exact("fanout.checksum"),
    MetricSpec::exact("fanout.chunks_served"),
    MetricSpec::exact("fanout.events_fired"),
];

/// The graph-build gate: every deterministic fact about the divisor-1000
/// replay graph's two-phase construction, plus one wall-clock *canary*.
/// `wall_s` is the sole exception to the no-wall-clock rule: its ±300%
/// tolerance cannot trip on scheduler jitter or a slower CI host — it
/// exists so an accidental O(V·E) regression in the generator (the
/// failure mode the redesign removed) fails loudly instead of quietly
/// quadrupling `just bench-replay`.
const GRAPH_GATE: &[MetricSpec] = &[
    MetricSpec::exact("graph_build.nodes"),
    MetricSpec::exact("graph_build.edges"),
    MetricSpec::exact("graph_build.max_in_degree"),
    MetricSpec::exact("graph_build.swaps_applied"),
    MetricSpec::exact("graph_build.adjacency_checksum"),
    MetricSpec::exact("graph_build.degree_checksum"),
    MetricSpec::exact("graph_build.peak_bytes"),
    MetricSpec::exact("graph_build.resident_bytes"),
    MetricSpec::rel("graph_build.wall_s", 3.0),
];

/// The worker-replay gate: the K-sweep's full-surface digests (hex
/// strings — u64 exceeds f64's integer range) and the ground-truth
/// record count. All three digests are asserted pairwise-equal at
/// generation time; gating each against the baseline additionally pins
/// the *value*, so the sharded fold cannot drift together with the
/// sequential path unnoticed.
const REPLAY_GATE: &[MetricSpec] = &[
    MetricSpec::exact("replay_workers.records"),
    MetricSpec::exact("replay_workers.runs.0.workers"),
    MetricSpec::exact("replay_workers.runs.0.digest"),
    MetricSpec::exact("replay_workers.runs.1.workers"),
    MetricSpec::exact("replay_workers.runs.1.digest"),
    MetricSpec::exact("replay_workers.runs.2.workers"),
    MetricSpec::exact("replay_workers.runs.2.digest"),
];

fn baselines_dir() -> PathBuf {
    std::env::var_os("LIVESCOPE_BASELINES")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("baselines"))
}

/// One fresh deterministic artifact, same construction as `obs_report`.
fn fresh_doc() -> String {
    let (breakdown, celebrity, fanout) = obs::canonical_reports();
    obs::obs_doc(&breakdown, &celebrity, &fanout)
}

#[derive(Serialize)]
struct GraphBuild {
    nodes: usize,
    edges: usize,
    max_in_degree: usize,
    swaps_applied: u64,
    adjacency_checksum: String,
    degree_checksum: String,
    peak_bytes: usize,
    resident_bytes: usize,
    wall_s: f64,
}

#[derive(Serialize)]
struct GraphDoc {
    bench: &'static str,
    graph_build: GraphBuild,
}

/// Fresh `GRAPH_build.json` artifact: the divisor-1000 replay graph
/// (`bench_replay`'s base run) rebuilt through the same
/// spec + seed path the workload uses, with every [`GRAPH_GATE`] input.
fn fresh_graph_doc() -> String {
    let scenario = ScenarioConfig::periscope_study();
    let t0 = Instant::now();
    let (graph, stats) = DiGraph::generate_with_stats(
        &default_graph_spec(&scenario),
        default_graph_seed(&scenario),
    );
    let wall_s = t0.elapsed().as_secs_f64();
    json_line(&GraphDoc {
        bench: "graph_build",
        graph_build: GraphBuild {
            nodes: stats.nodes,
            edges: stats.edges,
            max_in_degree: graph.degrees().max_in_degree(),
            swaps_applied: stats.swaps_applied,
            adjacency_checksum: hex(graph.adjacency_checksum()),
            degree_checksum: hex(graph.degree_checksum()),
            peak_bytes: stats.peak_bytes,
            resident_bytes: graph.resident_bytes(),
            wall_s: round_to(wall_s, 4),
        },
    })
}

#[derive(Serialize)]
struct WorkerDigest {
    workers: usize,
    digest: String,
}

#[derive(Serialize)]
struct ReplayWorkers {
    divisor: u64,
    records: u64,
    runs: Vec<WorkerDigest>,
}

#[derive(Serialize)]
struct ReplayDoc {
    bench: &'static str,
    replay_workers: ReplayWorkers,
}

/// Fresh `REPLAY_workers.json` artifact: the divisor-1000 sharded
/// replay K-sweep, digest per K (see [`REPLAY_GATE`]). The sweep is
/// also asserted internally consistent: every K must reproduce the
/// K = 1 digest before the document is even produced.
fn fresh_replay_doc() -> String {
    let scenario = livescope_bench::replay::scaled_periscope(1_000.0);
    let campaign = livescope_crawler::CampaignConfig::periscope_study();
    let graph = DiGraph::generate(
        &default_graph_spec(&scenario),
        default_graph_seed(&scenario),
    );
    let runs = livescope_bench::replay::worker_sweep(&scenario, &campaign, &graph, &[1, 2, 6]);
    for r in &runs {
        assert_eq!(
            r.digest, runs[0].digest,
            "K={} digest diverged within the fresh sweep",
            r.workers
        );
    }
    json_line(&ReplayDoc {
        bench: "replay_workers",
        replay_workers: ReplayWorkers {
            divisor: 1000,
            records: runs[0].records,
            runs: runs
                .iter()
                .map(|r| WorkerDigest {
                    workers: r.workers,
                    digest: hex(r.digest),
                })
                .collect(),
        },
    })
}

/// Span leaks no baseline may enshrine: one line per workload whose
/// `spans.unclosed` is not 0 in the fresh `doc`.
fn leaks(doc: &Value) -> Vec<String> {
    let leak = |path| match regress::lookup(doc, path).and_then(Value::as_u64) {
        Some(0) => None,
        found => Some(format!("{path}: {found:?}, a baseline must hold 0")),
    };
    ["breakdown.spans.unclosed", "celebrity.spans.unclosed"]
        .into_iter()
        .filter_map(leak)
        .collect()
}

/// Compares one fresh artifact against its committed baseline (or
/// rewrites the baseline). Returns the violation lines, or an error
/// string when the baseline is missing/unparseable.
fn check_artifact(
    file: &str,
    doc: &str,
    gate: &[MetricSpec],
    write: bool,
) -> Result<Vec<String>, String> {
    let path = baselines_dir().join(file);
    if write {
        fs::create_dir_all(baselines_dir()).map_err(|e| format!("create baselines dir: {e}"))?;
        fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("[wrote baseline {}]", path.display());
        return Ok(Vec::new());
    }
    let baseline_text = fs::read_to_string(&path).map_err(|err| {
        format!(
            "cannot read baseline {}: {err}\n\
             (run `bench_check --write-baselines` once and commit the file)",
            path.display()
        )
    })?;
    let baseline: Value = serde_json::from_str(&baseline_text)
        .map_err(|err| format!("baseline {} is not JSON: {err}", path.display()))?;
    let fresh: Value = serde_json::from_str(doc).expect("fresh artifact is JSON");
    let violations = regress::compare(&baseline, &fresh, gate);
    if violations.is_empty() {
        println!(
            "bench-regression gate passed: {} metrics within tolerance of {}",
            gate.len(),
            path.display()
        );
    }
    Ok(violations)
}

pub fn run(mut args: Args, _results: &Path) -> Result<ExitCode, UsageError> {
    let write = args.flag("--write-baselines");
    args.finish()?;
    let obs_doc = fresh_doc();
    if write {
        let leaks = leaks(&serde_json::from_str(&obs_doc).expect("fresh artifact is JSON"));
        if !leaks.is_empty() {
            eprintln!("bench_check: refusing to write baselines:");
            for leak in &leaks {
                eprintln!("  {leak}");
            }
            return Ok(ExitCode::FAILURE);
        }
    }
    let artifacts: [(&str, String, &[MetricSpec]); 3] = [
        ("OBS_report.json", obs_doc, GATE),
        ("GRAPH_build.json", fresh_graph_doc(), GRAPH_GATE),
        ("REPLAY_workers.json", fresh_replay_doc(), REPLAY_GATE),
    ];
    let mut violations = Vec::new();
    for (file, doc, gate) in &artifacts {
        match check_artifact(file, doc, gate, write) {
            Ok(v) => violations.extend(v),
            Err(err) => {
                eprintln!("bench_check: {err}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    if violations.is_empty() {
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!(
        "bench-regression gate FAILED ({} violations):",
        violations.len()
    );
    for v in &violations {
        eprintln!("  {v}");
    }
    Ok(ExitCode::FAILURE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_leaking_document_is_refused_by_name() {
        let doc = |unclosed: u64| -> Value {
            let spans = format!("{{\"spans\":{{\"unclosed\":{unclosed}}}}}");
            let text =
                format!("{{\"breakdown\":{spans},\"celebrity\":{{\"spans\":{{\"unclosed\":0}}}}}}");
            serde_json::from_str(&text).expect("test doc is JSON")
        };
        assert!(leaks(&doc(0)).is_empty());
        let refused = leaks(&doc(2));
        assert_eq!(refused.len(), 1, "{refused:?}");
        assert!(refused[0].starts_with("breakdown.spans.unclosed: Some(2)"));
        // A document without the audit cannot vouch for it either.
        assert_eq!(leaks(&Value::Null).len(), 2);
    }
}
