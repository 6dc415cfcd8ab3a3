//! `obs_report` — folds a simulation trace into the causal
//! observability report: per-POP six-component delay distributions
//! (Fig 15-style), QoE session metrics, and the top-k slowest
//! chunk-journey waterfalls (DESIGN.md §11).
//!
//! ```text
//! obs_report                      capture both canonical workloads,
//!                                 print the reports, write
//!                                 results/OBS_report.json
//! obs_report --workload breakdown | celebrity
//!                                 capture just one workload
//! obs_report <trace.jsonl>        fold an existing JSONL trace
//! obs_report --json               machine-readable output instead of text
//! obs_report --smoke              assert the celebrity fan-out's report
//!                                 bytes are identical across lane
//!                                 counts {1, 2, 6}, then exit
//! ```
//!
//! The report is a pure function of the trace, and the canonical traces
//! are pure functions of their seeds, so for a fixed seed the emitted
//! JSON is byte-identical at any lane count — `--smoke` is that
//! contract on the multi-shard workload, run in CI. (The breakdown
//! workload is one shard: it has no lane count to vary.)

#![forbid(unsafe_code)]

use std::fs;
use std::process::ExitCode;

use livescope_bench::obs::{self, LANE_SWEEP};
use livescope_bench::results_dir;
use livescope_net::datacenters;
use livescope_telemetry::{event, ObsReport};

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
    let report = ObsReport::derive(&trace.events);
    if json {
        println!("{}", report.to_json());
    } else {
        println!("{}", render(&report));
    }
    if trace.skipped_lines > 0 {
        eprintln!(
            "[skipped {} unparsed line(s); first: {}]",
            trace.skipped_lines, trace.first_skip
        );
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: obs_report [--json] [--smoke] [--workload breakdown|celebrity] [TRACE.jsonl]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let (mut json, mut run_smoke) = (false, false);
    let mut workload = "all".to_string();
    let mut path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--smoke" => run_smoke = true,
            "--workload" => match args.next() {
                Some(name) => workload = name,
                None => return usage(),
            },
            flag if flag.starts_with("--") => return usage(),
            _ => path = Some(arg),
        }
    }
    if run_smoke {
        return smoke();
    }
    if let Some(path) = path {
        return fold_file(&path, json);
    }
    match workload.as_str() {
        "breakdown" => {
            let report = obs::breakdown_obs();
            if json {
                println!("{}", report.to_json());
            } else {
                println!("{}", render(&report));
            }
        }
        "celebrity" => {
            let (report, _) = obs::celebrity_obs(1);
            if json {
                println!("{}", report.to_json());
            } else {
                println!("{}", render(&report));
            }
        }
        "all" => {
            let breakdown = obs::breakdown_obs();
            let (celebrity, fanout) = obs::celebrity_obs(1);
            let doc = obs::obs_doc(&breakdown, &celebrity, &fanout);
            if json {
                println!("{doc}");
            } else {
                println!("== breakdown workload ==\n{}", render(&breakdown));
                println!("== celebrity fan-out workload ==\n{}", render(&celebrity));
            }
            let path = results_dir().join("OBS_report.json");
            fs::write(&path, &doc).expect("can write OBS_report.json");
            println!("[wrote {}]", path.display());
        }
        other => {
            eprintln!("obs_report: unknown workload {other:?} (breakdown | celebrity)");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
