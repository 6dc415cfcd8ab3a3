//! Canonical observability workloads and the report documents, shared by
//! the `obs_report` and `bench_check` subcommands.
//!
//! Both must fold the *exact same* deterministic traces — the report
//! bytes are the regression-gate currency — so the workload
//! configurations, the one capture path and the `OBS_report.json`
//! document layout live here, in one place.

use livescope_analysis::{DelayBreakdown, DelayComponent};
use livescope_cdn::{run_fanout, FanoutConfig, FanoutReport};
use livescope_core::experiments::breakdown::{self, BreakdownConfig};
use livescope_telemetry::report::{QoeCohort, StageDist};
use livescope_telemetry::{ObsReport, Telemetry, TimedEvent};
use serde::Serialize;
use serde_json::Value;

use crate::{hex, round_to};

/// Event-buffer capacity for captures; far above what either CI-sized
/// workload emits, and dropped events are asserted against anyway.
const CAPTURE_CAPACITY: usize = 1 << 18;

/// The Fig-11 controlled experiment (one broadcaster, RTMP + HLS
/// viewers), sized for CI.
pub fn breakdown_config() -> BreakdownConfig {
    BreakdownConfig {
        repetitions: 2,
        stream_secs: 20,
        ..BreakdownConfig::default()
    }
}

/// The six-POP celebrity fan-out with roaming viewers (the mailbox-
/// crossing workload), sized for CI.
pub fn celebrity_config() -> FanoutConfig {
    FanoutConfig {
        viewers_per_pop: 10,
        stream_secs: 20,
        roam_every: 3,
        ..FanoutConfig::default()
    }
}

/// Runs `workload` against a recording handle and returns its result
/// with the whole trace.
fn capture<R>(workload: impl FnOnce(&Telemetry) -> R) -> (Vec<TimedEvent>, R) {
    let telemetry = Telemetry::recording(CAPTURE_CAPACITY);
    let result = workload(&telemetry);
    assert_eq!(
        telemetry.dropped_events(),
        0,
        "capture buffer overflowed; raise CAPTURE_CAPACITY"
    );
    (telemetry.events(), result)
}

/// The breakdown workload's trace.
pub fn breakdown_trace() -> Vec<TimedEvent> {
    capture(|telemetry| breakdown::run_traced(&breakdown_config(), telemetry)).0
}

/// The celebrity fan-out's trace (one lane; the trace is byte-identical
/// at any lane count, see `crates/core/tests/sharded_determinism.rs`),
/// with the workload's own report (delivery checksum, chunk and event
/// counts) for the regression gate.
pub fn celebrity_trace() -> (Vec<TimedEvent>, FanoutReport) {
    capture(|telemetry| run_fanout(&celebrity_config(), 1, telemetry))
}

/// Both canonical workloads folded, with the fan-out's own report: the
/// inputs of [`obs_doc`].
pub fn canonical_reports() -> (ObsReport, ObsReport, FanoutReport) {
    let (celebrity, fanout) = celebrity_trace();
    let breakdown = ObsReport::derive(&breakdown_trace());
    (breakdown, ObsReport::derive(&celebrity), fanout)
}

#[derive(Serialize)]
struct LedgerDoc {
    rtmp_units: u64,
    hls_chunks: u64,
    unmatched_chunks: u64,
    /// Stage means keyed by `DelayComponent::key()`, then `total`.
    rtmp: Value,
    hls: Value,
}

#[derive(Serialize)]
struct SpansDoc {
    opens: u64,
    closes: u64,
    unclosed: u64,
    unmatched_closes: u64,
}

#[derive(Serialize)]
struct StageDistDoc {
    count: u64,
    mean_s: f64,
    p95_s: f64,
}

#[derive(Serialize)]
struct PopDoc {
    pop: u16,
    chunks: u64,
    viewers: u64,
    /// One [`StageDistDoc`] per stage, keyed by `DelayComponent::key()`.
    stages: Value,
    total_mean_s: f64,
}

#[derive(Serialize)]
struct QoeCohortDoc {
    sessions: u64,
    join_mean_s: f64,
    join_max_s: f64,
    stall_mean_s: f64,
    stall_ratio_mean: f64,
}

#[derive(Serialize)]
struct QoeDoc {
    rtmp: QoeCohortDoc,
    hls: QoeCohortDoc,
}

#[derive(Serialize)]
struct WaterfallDoc {
    broadcast: u64,
    seq: u64,
    viewer: u64,
    pop: u16,
    start_us: u64,
    seal_us: u64,
    origin_wait_us: u64,
    fetch_us: u64,
    poll_wait_us: u64,
    download_us: u64,
    total_us: u64,
}

/// One folded report as a document. Field order is fixed and floats
/// carry six decimals, so the bytes are identical whenever the report is.
#[derive(Serialize)]
pub struct ReportDoc {
    report: &'static str,
    events: u64,
    span_s: f64,
    /// Per-kind event counts, one key per kind in name order.
    counts: Value,
    ledger: LedgerDoc,
    spans: SpansDoc,
    pops: Vec<PopDoc>,
    qoe: QoeDoc,
    waterfalls: Vec<WaterfallDoc>,
}

/// A JSON object with one member per delay stage, in pipeline order.
fn by_stage(member: impl Fn(DelayComponent) -> Value) -> Vec<(String, Value)> {
    DelayComponent::all()
        .into_iter()
        .map(|c| (c.key().to_string(), member(c)))
        .collect()
}

impl ReportDoc {
    pub fn of(r: &ObsReport) -> Self {
        let secs = |s: f64| round_to(s, 6);
        let counts = r
            .counts
            .iter()
            .map(|(kind, n)| (kind.to_string(), n.to_value()));
        let stage_means = |d: &DelayBreakdown| {
            let mut row = by_stage(|c| secs(d.get(c)).to_value());
            row.push(("total".to_string(), secs(d.total_s()).to_value()));
            Value::Object(row)
        };
        let stage_dist = |d: &StageDist| StageDistDoc {
            count: d.count,
            mean_s: secs(d.mean_s),
            p95_s: secs(d.p95_s),
        };
        let cohort = |q: &QoeCohort| QoeCohortDoc {
            sessions: q.sessions,
            join_mean_s: secs(q.join_mean_s),
            join_max_s: secs(q.join_max_s),
            stall_mean_s: secs(q.stall_mean_s),
            stall_ratio_mean: secs(q.stall_ratio_mean),
        };
        let pops = r.pops.iter().map(|p| PopDoc {
            pop: p.pop,
            chunks: p.chunks,
            viewers: p.viewers,
            stages: Value::Object(by_stage(|c| stage_dist(&p.stages[c as usize]).to_value())),
            total_mean_s: secs(p.total_mean_s()),
        });
        let waterfalls = r.waterfalls.iter().map(|w| WaterfallDoc {
            broadcast: w.broadcast,
            seq: w.seq,
            viewer: w.viewer,
            pop: w.pop,
            start_us: w.start_us,
            seal_us: w.seal_us,
            origin_wait_us: w.origin_wait_us,
            fetch_us: w.fetch_us,
            poll_wait_us: w.poll_wait_us,
            download_us: w.download_us,
            total_us: w.total_us,
        });
        ReportDoc {
            report: "obs",
            events: r.events,
            span_s: r.span_us as f64 / 1e6,
            counts: Value::Object(counts.collect()),
            ledger: LedgerDoc {
                rtmp_units: r.ledger.rtmp_units,
                hls_chunks: r.ledger.hls_chunks,
                unmatched_chunks: r.ledger.unmatched_chunks,
                rtmp: stage_means(&r.ledger.rtmp),
                hls: stage_means(&r.ledger.hls),
            },
            spans: SpansDoc {
                opens: r.spans.opens,
                closes: r.spans.closes,
                unclosed: r.spans.unclosed,
                unmatched_closes: r.spans.unmatched_closes,
            },
            pops: pops.collect(),
            qoe: QoeDoc {
                rtmp: cohort(&r.qoe_rtmp),
                hls: cohort(&r.qoe_hls),
            },
            waterfalls: waterfalls.collect(),
        }
    }
}

#[derive(Serialize)]
struct FanoutDoc {
    checksum: String,
    chunks_served: u64,
    events_fired: u64,
}

#[derive(Serialize)]
struct ObsDoc {
    report: &'static str,
    meta: Value,
    breakdown: ReportDoc,
    celebrity: ReportDoc,
    fanout: FanoutDoc,
}

/// The `OBS_report.json` document: run metadata (host-varying; never
/// gated), then the two folded reports and the fan-out's deterministic
/// counters.
pub fn obs_doc(breakdown: &ObsReport, celebrity: &ObsReport, fanout: &FanoutReport) -> String {
    let doc = ObsDoc {
        report: "obs_report",
        meta: crate::run_meta_json(breakdown_config().seed),
        breakdown: ReportDoc::of(breakdown),
        celebrity: ReportDoc::of(celebrity),
        fanout: FanoutDoc {
            checksum: hex(fanout.checksum),
            chunks_served: fanout.chunks_served(),
            events_fired: fanout.events_fired,
        },
    };
    serde_json::to_string(&doc).expect("document renders")
}

#[cfg(test)]
mod tests {
    use super::*;
    use livescope_telemetry::report::{PopBreakdown, Waterfall};

    #[test]
    fn json_rendering_is_stable_and_self_consistent() {
        let mut pop = PopBreakdown {
            pop: 9,
            chunks: 1,
            viewers: 1,
            ..PopBreakdown::default()
        };
        pop.stages[DelayComponent::LastMile as usize] = StageDist {
            count: 1,
            mean_s: 0.2,
            p95_s: 0.2000004,
        };
        let mut r = ObsReport {
            events: 10,
            span_us: 4_000_000,
            pops: vec![pop],
            waterfalls: vec![Waterfall {
                total_us: 4_000_000,
                ..Waterfall::default()
            }],
            ..ObsReport::default()
        };
        r.counts.insert("chunk_delivered", 1);
        r.ledger.hls.last_mile_s = 0.2;
        let json = |r: &ObsReport| serde_json::to_string(&ReportDoc::of(r)).expect("renders");
        let a = json(&r);
        assert_eq!(a, json(&r.clone()));
        assert!(
            a.starts_with(
                "{\"report\":\"obs\",\"events\":10,\"span_s\":4.0,\
                 \"counts\":{\"chunk_delivered\":1},\"ledger\":{\"rtmp_units\":0,"
            ),
            "{a}"
        );
        assert!(a.contains("\"pop\":9"), "{a}");
        assert!(
            a.contains("\"last-mile\":{\"count\":1,\"mean_s\":0.2,\"p95_s\":0.2}"),
            "{a}"
        );
        assert!(
            a.contains("\"last-mile\":0.2,\"buffering\":0.0,\"total\":0.2}"),
            "{a}"
        );
        assert!(a.contains("\"total_us\":4000000"), "{a}");
        let text = r.render(&|pop| format!("pop{pop}"));
        assert!(text.contains("9 pop9"), "{text}");
        assert!(text.contains("top-5 slowest chunk journeys"), "{text}");
    }
}
