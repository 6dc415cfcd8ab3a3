//! `trace_summary` — inspect a livescope JSONL trace.
//!
//! ```text
//! livescope trace_summary <trace.jsonl>      summarize an existing trace
//! livescope trace_summary --capture <path>   run the default breakdown
//!                                  experiment with tracing on, write the
//!                                  trace to <path>, then summarize it
//! … trace_summary ... --format json  machine-readable summary
//! ```
//!
//! The summary prints per-kind event counts (spans included), the traced
//! time span, and the six-component delay ledger ([`TraceBreakdown`])
//! derived purely from the trace — the same numbers
//! `experiments::breakdown` computes analytically, recovered from what
//! the state machines actually did.
//!
//! Parsing is lenient: lines written by a newer event vocabulary are
//! counted and reported, never silently dropped.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::ExitCode;

use livescope_core::experiments::breakdown::{run_traced, BreakdownConfig};
use livescope_telemetry::event::parse_jsonl_lossy;
use livescope_telemetry::{SharedBuffer, StageDelays, Telemetry, TimedEvent, TraceBreakdown};
use serde::Serialize;
use serde_json::Value;

use crate::args::{Args, UsageError};
use crate::round_to;

pub fn run(mut args: Args, _results: &Path) -> Result<ExitCode, UsageError> {
    let json = match args.value("--format").as_deref() {
        None | Some("text") => false,
        Some("json") => true,
        Some(_) => return Err(UsageError),
    };
    let capture = args.value("--capture");
    let path = args.positional();
    args.finish()?;
    let text = match (path, capture) {
        (Some(path), None) => match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("trace_summary: cannot read {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
        },
        (None, Some(path)) => {
            let buf = SharedBuffer::new();
            let telemetry = Telemetry::to_jsonl(Box::new(buf.clone()));
            let report = run_traced(&BreakdownConfig::default(), &telemetry);
            telemetry.flush();
            let bytes = buf.contents();
            if let Err(e) = fs::write(&path, &bytes) {
                eprintln!("trace_summary: cannot write {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
            if !json {
                println!("captured {} bytes of trace to {path}\n", bytes.len());
                println!("analytic report for cross-reference:\n{}", report.render());
            }
            String::from_utf8(bytes).expect("trace is UTF-8")
        }
        _ => return Err(UsageError),
    };

    let trace = parse_jsonl_lossy(&text);
    if json {
        println!("{}", summarize_json(&trace.events, trace.skipped_lines));
    } else {
        println!("{}", summarize(&trace.events));
        if trace.skipped_lines > 0 {
            println!(
                "[skipped {} unparsed line(s); first: {}]",
                trace.skipped_lines, trace.first_skip
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn kind_counts(events: &[TimedEvent]) -> BTreeMap<&'static str, u64> {
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in events {
        *counts.entry(e.event.kind()).or_default() += 1;
    }
    counts
}

fn summarize(events: &[TimedEvent]) -> String {
    let mut out = String::new();
    if events.is_empty() {
        out.push_str("empty trace\n");
        return out;
    }
    let first = events.iter().map(|e| e.t_us).min().unwrap_or(0);
    let last = events.iter().map(|e| e.t_us).max().unwrap_or(0);
    let _ = write!(
        out,
        "{} events spanning {:.3} s of sim time\n\n",
        events.len(),
        (last - first) as f64 / 1e6
    );
    out.push_str("event counts:\n");
    for (kind, n) in &kind_counts(events) {
        let _ = writeln!(out, "  {kind:<22} {n}");
    }
    out.push('\n');
    out.push_str(&TraceBreakdown::derive(events).render());
    out
}

#[derive(Serialize)]
struct Stages {
    upload_s: f64,
    chunking_s: f64,
    wowza2fastly_s: f64,
    polling_s: f64,
    last_mile_s: f64,
    buffering_s: f64,
    total_s: f64,
}

impl Stages {
    fn of(s: &StageDelays) -> Self {
        Stages {
            upload_s: round_to(s.upload_s, 6),
            chunking_s: round_to(s.chunking_s, 6),
            wowza2fastly_s: round_to(s.wowza2fastly_s, 6),
            polling_s: round_to(s.polling_s, 6),
            last_mile_s: round_to(s.last_mile_s, 6),
            buffering_s: round_to(s.buffering_s, 6),
            total_s: round_to(s.total_s(), 6),
        }
    }
}

#[derive(Serialize)]
struct TraceSummary {
    summary: &'static str,
    events: usize,
    skipped_lines: u64,
    span_s: f64,
    /// Per-kind event counts, one key per kind in name order.
    counts: Value,
    rtmp_units: u64,
    hls_chunks: u64,
    unmatched_chunks: u64,
    rtmp: Stages,
    hls: Stages,
}

/// Machine-readable summary with a fixed field order.
fn summarize_json(events: &[TimedEvent], skipped_lines: u64) -> String {
    let first = events.iter().map(|e| e.t_us).min().unwrap_or(0);
    let last = events.iter().map(|e| e.t_us).max().unwrap_or(0);
    let counts = kind_counts(events)
        .into_iter()
        .map(|(kind, n)| (kind.to_string(), n.to_value()))
        .collect();
    let ledger = TraceBreakdown::derive(events);
    let summary = TraceSummary {
        summary: "trace",
        events: events.len(),
        skipped_lines,
        span_s: (last - first) as f64 / 1e6,
        counts: Value::Object(counts),
        rtmp_units: ledger.rtmp_units,
        hls_chunks: ledger.hls_chunks,
        unmatched_chunks: ledger.unmatched_chunks,
        rtmp: Stages::of(&ledger.rtmp),
        hls: Stages::of(&ledger.hls),
    };
    serde_json::to_string(&summary).expect("summary renders")
}
