//! `obs_report` — folds a simulation trace into the causal
//! observability report: per-POP six-component delay distributions
//! (Fig 15-style), QoE session metrics, and the top-k slowest
//! chunk-journey waterfalls (DESIGN.md §11).
//!
//! ```text
//! livescope obs_report            capture both canonical workloads,
//!                                 print the reports, write
//!                                 results/OBS_report.json
//! … obs_report --workload breakdown | celebrity
//!                                 capture just one workload
//! … obs_report <trace.jsonl>      fold an existing JSONL trace
//! … obs_report --json             machine-readable output instead of text
//! … obs_report --smoke            assert the celebrity fan-out's report
//!                                 bytes are identical across lane
//!                                 counts {1, 2, 6}, then exit
//! ```
//!
//! The report is a pure function of the trace, and the canonical traces
//! are pure functions of their seeds, so for a fixed seed the emitted
//! JSON is byte-identical at any lane count — `--smoke` is that
//! contract on the multi-shard workload, run in CI. (The breakdown
//! workload is one shard: it has no lane count to vary.)

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use livescope_bench::obs::{self, LANE_SWEEP};
use livescope_net::datacenters;
use livescope_telemetry::{event, ObsReport};

use crate::args::{Args, UsageError};

/// Datacenter id → display city (ids outside the registry — foreign
/// traces — fall back to `pop<N>`).
fn pop_name(pop: u16) -> String {
    datacenters::all_datacenters()
        .get(pop as usize)
        .map(|d| d.city.to_string())
        .unwrap_or_else(|| format!("pop{pop}"))
}

fn render(report: &ObsReport) -> String {
    report.render(&pop_name)
}

fn print_report(report: &ObsReport, json: bool) {
    if json {
        println!("{}", report.to_json());
    } else {
        println!("{}", render(report));
    }
}

/// The CI determinism check: same seed ⇒ same report bytes, however
/// many lanes execute the shards.
fn smoke() -> ExitCode {
    let (celebrity_ref, fanout_ref) = obs::celebrity_obs(1);
    let celebrity_json = celebrity_ref.to_json();
    for lanes in LANE_SWEEP {
        let (report, fanout) = obs::celebrity_obs(lanes);
        if report.to_json() != celebrity_json {
            eprintln!("smoke FAILED: celebrity report diverged at lanes={lanes}");
            return ExitCode::FAILURE;
        }
        if fanout.checksum != fanout_ref.checksum {
            eprintln!("smoke FAILED: celebrity checksum diverged at lanes={lanes}");
            return ExitCode::FAILURE;
        }
    }
    println!("smoke: celebrity OBS report bytes identical across lanes {LANE_SWEEP:?}");
    ExitCode::SUCCESS
}

/// Folds an on-disk JSONL trace (leniently: unknown lines are counted,
/// never silently dropped).
fn fold_file(path: &str, json: bool) -> ExitCode {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("obs_report: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let trace = event::parse_jsonl_lossy(&text);
    print_report(&ObsReport::derive(&trace.events), json);
    if trace.skipped_lines > 0 {
        eprintln!(
            "[skipped {} unparsed line(s); first: {}]",
            trace.skipped_lines, trace.first_skip
        );
    }
    ExitCode::SUCCESS
}

pub fn run(mut args: Args, results: &Path) -> Result<ExitCode, UsageError> {
    let json = args.flag("--json");
    let run_smoke = args.flag("--smoke");
    let workload = args.value("--workload");
    let path = args.positional();
    args.finish()?;
    if !matches!(workload.as_deref(), None | Some("breakdown" | "celebrity")) {
        return Err(UsageError);
    }
    if run_smoke {
        return Ok(smoke());
    }
    if let Some(path) = path {
        return Ok(fold_file(&path, json));
    }
    match workload.as_deref() {
        Some("breakdown") => print_report(&obs::breakdown_obs(), json),
        Some("celebrity") => print_report(&obs::celebrity_obs(1).0, json),
        _ => {
            let breakdown = obs::breakdown_obs();
            let (celebrity, fanout) = obs::celebrity_obs(1);
            let doc = obs::obs_doc(&breakdown, &celebrity, &fanout);
            if json {
                println!("{doc}");
            } else {
                println!("== breakdown workload ==\n{}", render(&breakdown));
                println!("== celebrity fan-out workload ==\n{}", render(&celebrity));
            }
            fs::create_dir_all(results).expect("can create results directory");
            let path = results.join("OBS_report.json");
            fs::write(&path, &doc).expect("can write OBS_report.json");
            println!("[wrote {}]", path.display());
        }
    }
    Ok(ExitCode::SUCCESS)
}
