//! Trace determinism and ledger cross-check for the breakdown experiment.
//!
//! Two properties the telemetry layer guarantees:
//!
//! 1. A JSONL trace is a pure function of `(config, seed)` — two runs
//!    produce byte-identical output, and tracing never perturbs the
//!    simulation itself (the NullSink run returns the same report).
//! 2. The six-component Fig 10 breakdown derived from the trace by
//!    [`ObsReport::derive`] (its `ledger`) agrees with the analytic numbers
//!    `experiments::breakdown` computes from its own in-memory state.

#![forbid(unsafe_code)]

use livescope_core::experiments::breakdown::{run, run_traced, BreakdownConfig, BreakdownReport};
use livescope_core::experiments::overlay_ext::{
    run as overlay_run, run_traced as overlay_run_traced, OverlayConfig, OverlayReport,
};
use livescope_telemetry::event::parse_jsonl;
use livescope_telemetry::{ObsReport, SharedBuffer, SpanKind, Telemetry, TimedEvent, TraceEvent};

fn quick() -> BreakdownConfig {
    BreakdownConfig {
        repetitions: 2,
        stream_secs: 40,
        ..BreakdownConfig::default()
    }
}

fn capture_trace(config: &BreakdownConfig) -> (Vec<u8>, BreakdownReport) {
    let buf = SharedBuffer::new();
    let telemetry = Telemetry::to_jsonl(Box::new(buf.clone()));
    let report = run_traced(config, &telemetry);
    telemetry.flush();
    (buf.contents(), report)
}

fn overlay_config() -> OverlayConfig {
    OverlayConfig {
        audiences: vec![100, 500],
        frames: 40,
        ..OverlayConfig::default()
    }
}

fn capture_overlay(config: &OverlayConfig) -> (Vec<u8>, OverlayReport) {
    let buf = SharedBuffer::new();
    let telemetry = Telemetry::to_jsonl(Box::new(buf.clone()));
    let report = overlay_run_traced(config, &telemetry);
    telemetry.flush();
    (buf.contents(), report)
}

fn parse(bytes: &[u8]) -> Vec<TimedEvent> {
    parse_jsonl(std::str::from_utf8(bytes).expect("trace is UTF-8")).expect("trace parses back")
}

#[test]
fn same_config_and_seed_yield_byte_identical_traces() {
    let (a, _) = capture_trace(&quick());
    let (b, _) = capture_trace(&quick());
    assert!(!a.is_empty(), "trace must not be empty");
    assert_eq!(
        a, b,
        "same (config, seed) must reproduce the trace bit-for-bit"
    );
}

/// Every span kind is opened and closed on a real trace, and every open
/// is closed: the breakdown carries the broadcast, session and
/// chunk-journey kinds, the overlay experiment the frame kind. (The
/// byte-compared traces above therefore carry the causal spans too.)
#[test]
fn every_span_kind_opens_and_closes() {
    let (breakdown, _) = capture_trace(&quick());
    let (overlay, _) = capture_overlay(&overlay_config());
    let (mut opened, mut closed) = (Vec::new(), Vec::new());
    for bytes in [breakdown, overlay] {
        let events = parse(&bytes);
        let spans = ObsReport::derive(&events).spans;
        assert_eq!(
            (spans.unclosed, spans.unmatched_closes),
            (0, 0),
            "{spans:?}"
        );
        for e in &events {
            match e.event {
                TraceEvent::SpanOpen { kind, .. } if !opened.contains(&kind) => opened.push(kind),
                TraceEvent::SpanClose { kind, .. } if !closed.contains(&kind) => closed.push(kind),
                _ => {}
            }
        }
    }
    let both: Vec<SpanKind> = SpanKind::all()
        .into_iter()
        .filter(|k| opened.contains(k) && closed.contains(k))
        .collect();
    assert_eq!(
        both,
        SpanKind::all(),
        "opened {opened:?}, closed {closed:?}"
    );
}

#[test]
fn different_seeds_yield_different_traces() {
    let (a, _) = capture_trace(&quick());
    let (b, _) = capture_trace(&BreakdownConfig {
        seed: 0xD1FF,
        ..quick()
    });
    assert_ne!(a, b, "the trace must actually depend on the seed");
}

#[test]
fn tracing_does_not_perturb_the_experiment() {
    let plain = run(&quick());
    let (_, traced) = capture_trace(&quick());
    assert_eq!(plain.rtmp, traced.rtmp);
    assert_eq!(plain.hls, traced.hls);
}

#[test]
fn trace_derived_breakdown_matches_analytic_report() {
    let (bytes, report) = capture_trace(&quick());
    let derived = ObsReport::derive(&parse(&bytes)).ledger;

    assert_eq!(
        derived.unmatched_chunks, 0,
        "every delivered chunk has a ChunkCompleted"
    );
    assert!(derived.rtmp_units > 0);
    assert!(derived.hls_chunks > 0);

    // The analytic report averages per repetition while the ledger
    // averages per unit; with equal-length repetitions the two only differ
    // by per-rep unit-count jitter, so a modest absolute tolerance holds.
    let tol = 0.25;
    let checks = [
        ("rtmp upload", derived.rtmp.upload_s, report.rtmp.upload_s),
        (
            "rtmp last-mile",
            derived.rtmp.last_mile_s,
            report.rtmp.last_mile_s,
        ),
        (
            "rtmp buffering",
            derived.rtmp.buffering_s,
            report.rtmp.buffering_s,
        ),
        ("hls upload", derived.hls.upload_s, report.hls.upload_s),
        (
            "hls chunking",
            derived.hls.chunking_s,
            report.hls.chunking_s,
        ),
        (
            "hls wowza2fastly",
            derived.hls.wowza2fastly_s,
            report.hls.wowza2fastly_s,
        ),
        ("hls polling", derived.hls.polling_s, report.hls.polling_s),
        (
            "hls last-mile",
            derived.hls.last_mile_s,
            report.hls.last_mile_s,
        ),
        (
            "hls buffering",
            derived.hls.buffering_s,
            report.hls.buffering_s,
        ),
    ];
    for (name, got, want) in checks {
        assert!(
            (got - want).abs() < tol,
            "{name}: trace-derived {got:.4} vs analytic {want:.4}"
        );
    }
    // RTMP never touches the chunk path; the trace must agree exactly.
    assert_eq!(derived.rtmp.chunking_s, 0.0);
    assert_eq!(derived.rtmp.wowza2fastly_s, 0.0);
    assert_eq!(derived.rtmp.polling_s, 0.0);
}

#[test]
fn determinism_sweep_covers_breakdown_and_overlay_experiments() {
    // The dynamic counterpart of detlint's static pass: two experiments
    // on different code paths (CDN breakdown, §8 overlay multicast) each
    // run twice at a fixed seed and must reproduce their traces
    // byte-for-byte.
    let (breakdown_a, _) = capture_trace(&quick());
    let (breakdown_b, _) = capture_trace(&quick());
    assert!(!breakdown_a.is_empty());
    assert_eq!(
        breakdown_a, breakdown_b,
        "breakdown trace drifted between runs"
    );

    let overlay_config = overlay_config();
    let (overlay_a, report_a) = capture_overlay(&overlay_config);
    let (overlay_b, report_b) = capture_overlay(&overlay_config);
    assert!(!overlay_a.is_empty(), "overlay trace must not be empty");
    assert_eq!(overlay_a, overlay_b, "overlay trace drifted between runs");
    assert_eq!(report_a.overlay.len(), report_b.overlay.len());

    // The overlay trace parses back and carries one frame event per
    // pushed frame, per audience.
    let frame_events = parse(&overlay_a)
        .iter()
        .filter(|e| e.event.kind() == "overlay_frame_delivered")
        .count() as u64;
    assert_eq!(
        frame_events,
        overlay_config.frames * overlay_config.audiences.len() as u64
    );

    // Tracing must not perturb the overlay experiment either.
    let plain = overlay_run(&overlay_config);
    for (t, p) in report_a.overlay.iter().zip(plain.overlay.iter()) {
        assert_eq!(t.audience, p.audience);
        assert!((t.origin_sends_per_frame - p.origin_sends_per_frame).abs() < 1e-12);
        assert!((t.mean_delay_s - p.mean_delay_s).abs() < 1e-12);
    }
}

#[test]
fn profile_sections_record_on_a_default_build_without_touching_the_trace() {
    // Wall-clock sections are live on every recording handle; what keeps
    // the trace a pure function of `(config, seed)` is that they only
    // feed histograms, never the event stream.
    let overlay_config = OverlayConfig {
        audiences: vec![100],
        frames: 20,
        ..OverlayConfig::default()
    };
    let capture = || {
        let buf = SharedBuffer::new();
        let telemetry = Telemetry::to_jsonl(Box::new(buf.clone()));
        run_traced(&quick(), &telemetry);
        overlay_run_traced(&overlay_config, &telemetry);
        telemetry.flush();
        (buf.contents(), telemetry.snapshot())
    };
    let (bytes_a, snapshot) = capture();
    let (bytes_b, _) = capture();
    assert!(!bytes_a.is_empty());
    assert_eq!(bytes_a, bytes_b, "live sections perturbed the trace");

    let recorded = |prefix: &str| {
        snapshot
            .histograms
            .iter()
            .any(|(name, h)| name.starts_with(prefix) && h.count > 0)
    };
    assert!(
        recorded("handler.sharded."),
        "no sharded barrier section recorded: {:?}",
        snapshot.histograms
    );
    assert!(
        recorded("handler.overlay."),
        "no overlay relay section recorded: {:?}",
        snapshot.histograms
    );
}

#[test]
fn memory_sink_records_metrics_alongside_events() {
    let telemetry = Telemetry::recording(4096);
    let _ = run_traced(&quick(), &telemetry);
    let snapshot = telemetry.snapshot();
    for name in [
        "wowza.frames_in",
        "wowza.chunks_built",
        "fastly.polls_served",
        "fastly.origin_fetches",
        "control.broadcasts_created",
        "control.joins_rtmp",
        "client.rtmp_units_received",
        "client.hls_chunks_received",
        "crawler.probe_polls",
    ] {
        assert!(
            snapshot.counter(name).is_some_and(|v| v > 0),
            "counter {name} should be live: {:?}",
            snapshot.counter(name)
        );
    }
}
