//! `obs_report` — the one reader of a simulation trace: per-kind event
//! counts, the six-component delay ledger, per-POP delay distributions
//! (Fig 15-style), QoE session metrics, the top-k slowest chunk-journey
//! waterfalls and the span audit (`crates/telemetry/DESIGN.md`).
//!
//! ```text
//! livescope obs_report            capture both canonical workloads,
//!                                 print the reports, write
//!                                 results/OBS_report.json
//! … obs_report --workload breakdown | celebrity
//!                                 capture just one workload
//! … obs_report --capture <path>   capture one workload (breakdown unless
//!                                 --workload says otherwise) and also
//!                                 write its JSONL trace to <path>
//! … obs_report <trace.jsonl>      fold an existing JSONL trace
//! … obs_report --json             machine-readable output instead of text
//! ```
//!
//! The report is a pure function of the trace, and the canonical traces
//! are pure functions of their seeds (at any lane count:
//! `crates/core/tests/sharded_determinism.rs`), so for a fixed seed the
//! emitted JSON is byte-identical from run to run.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use livescope_bench::obs::{self, ReportDoc};
use livescope_net::datacenters;
use livescope_telemetry::{event, ObsReport, TimedEvent};

use crate::args::{Args, UsageError};
use crate::json_line;

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

fn print_report(events: &[TimedEvent], json: bool) {
    let report = ObsReport::derive(events);
    if json {
        print!("{}", json_line(&ReportDoc::of(&report)));
    } else {
        println!("{}", render(&report));
    }
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
    print_report(&trace.events, json);
    if trace.skipped_lines > 0 {
        eprintln!(
            "[skipped {} unparsed line(s); first: {}]",
            trace.skipped_lines, trace.first_skip
        );
    }
    ExitCode::SUCCESS
}

/// Captures one canonical workload, writes its trace to `capture` if
/// asked, and folds exactly the events it wrote.
fn fold_workload(celebrity: bool, capture: Option<&str>, json: bool) -> ExitCode {
    let events = if celebrity {
        obs::celebrity_trace().0
    } else {
        obs::breakdown_trace()
    };
    if let Some(path) = capture {
        let jsonl: String = events.iter().map(|e| e.to_json_line() + "\n").collect();
        if let Err(err) = fs::write(path, &jsonl) {
            eprintln!("obs_report: cannot write {path}: {err}");
            return ExitCode::FAILURE;
        }
        eprintln!("[captured {} bytes of trace to {path}]", jsonl.len());
    }
    print_report(&events, json);
    ExitCode::SUCCESS
}

pub fn run(mut args: Args, results: &Path) -> Result<ExitCode, UsageError> {
    let json = args.flag("--json");
    let workload = args.value("--workload");
    let capture = args.value("--capture");
    let path = args.positional();
    args.finish()?;
    let celebrity = match workload.as_deref() {
        None | Some("breakdown") => false,
        Some("celebrity") => true,
        Some(_) => return Err(UsageError),
    };
    let captures = workload.is_some() || capture.is_some();
    if let Some(path) = path {
        if captures {
            return Err(UsageError);
        }
        return Ok(fold_file(&path, json));
    }
    if captures {
        return Ok(fold_workload(celebrity, capture.as_deref(), json));
    }
    let (breakdown, celebrity, fanout) = obs::canonical_reports();
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
    Ok(ExitCode::SUCCESS)
}
