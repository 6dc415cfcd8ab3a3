//! The sharded scheduler's determinism contract, end to end:
//!
//! * same seed ⇒ same trace **bytes**, for any lane count — checked on the
//!   single-shard breakdown workload and on the multi-shard (mailbox-
//!   crossing) celebrity fan-out workload, each run twice per lane count
//!   (every lane above the first is a scoped worker thread, so the sweep
//!   covers real thread interleaving);
//! * a one-shard `ShardedScheduler` run equals the legacy `Scheduler`
//!   (`BackendChoice::Single`) event for event.

#![forbid(unsafe_code)]

use livescope_cdn::{run_fanout, FanoutConfig};
use livescope_core::experiments::breakdown::{self, BreakdownConfig};
use livescope_sim::BackendChoice;
use livescope_telemetry::{event, SharedBuffer, Telemetry, TraceEvent};

const LANE_SWEEP: [usize; 3] = [1, 2, 6];

fn breakdown_config() -> BreakdownConfig {
    BreakdownConfig {
        repetitions: 2,
        stream_secs: 20,
        ..BreakdownConfig::default()
    }
}

/// Runs the breakdown experiment with a JSONL sink and returns the raw
/// trace bytes.
fn breakdown_trace(backend: BackendChoice) -> Vec<u8> {
    let buf = SharedBuffer::new();
    let telemetry = Telemetry::to_jsonl(Box::new(buf.clone()));
    breakdown::run_traced_on(&breakdown_config(), &telemetry, backend);
    telemetry.flush();
    buf.contents()
}

fn fanout_config() -> FanoutConfig {
    FanoutConfig {
        viewers_per_pop: 10,
        stream_secs: 20,
        roam_every: 3,
        ..FanoutConfig::default()
    }
}

/// Runs the multi-shard fan-out with a JSONL sink and returns the raw
/// trace bytes.
fn fanout_trace(lanes: usize) -> Vec<u8> {
    let buf = SharedBuffer::new();
    let telemetry = Telemetry::to_jsonl(Box::new(buf.clone()));
    run_fanout(&fanout_config(), lanes, &telemetry);
    telemetry.flush();
    buf.contents()
}

/// Counts `(span_open, span_close)` events in a raw JSONL trace, and
/// checks every close names a previously opened span id.
fn span_counts(bytes: &[u8]) -> (u64, u64) {
    let events = event::parse_jsonl(std::str::from_utf8(bytes).expect("utf8")).expect("parses");
    let mut opened = std::collections::HashSet::new();
    let (mut opens, mut closes) = (0u64, 0u64);
    for e in &events {
        match &e.event {
            TraceEvent::SpanOpen { id, .. } => {
                opened.insert(*id);
                opens += 1;
            }
            TraceEvent::SpanClose { id, .. } => {
                assert!(opened.contains(id), "close of never-opened span {id:#x}");
                closes += 1;
            }
            _ => {}
        }
    }
    (opens, closes)
}

#[test]
fn breakdown_trace_bytes_are_identical_across_lane_counts() {
    let reference = breakdown_trace(BackendChoice::Sharded { lanes: 1 });
    assert!(!reference.is_empty(), "instrumented run must emit events");
    // The byte-compared trace must carry the causal spans — the
    // determinism contract covers them, not just the legacy events.
    let (opens, closes) = span_counts(&reference);
    assert!(opens > 0, "breakdown trace carries no span_open events");
    assert!(closes > 0, "breakdown trace carries no span_close events");
    for lanes in LANE_SWEEP {
        for run in 0..2 {
            let trace = breakdown_trace(BackendChoice::Sharded { lanes });
            assert!(
                trace == reference,
                "trace bytes diverged: lanes={lanes} run={run}"
            );
        }
    }
}

#[test]
fn sharded_lanes_1_matches_the_legacy_scheduler_event_for_event() {
    let legacy = breakdown_trace(BackendChoice::Single);
    let sharded = breakdown_trace(BackendChoice::Sharded { lanes: 1 });
    let legacy_events = event::parse_jsonl(std::str::from_utf8(&legacy).expect("utf8"))
        .expect("legacy trace parses");
    let sharded_events = event::parse_jsonl(std::str::from_utf8(&sharded).expect("utf8"))
        .expect("sharded trace parses");
    assert!(!legacy_events.is_empty());
    assert_eq!(legacy_events.len(), sharded_events.len());
    for (i, (l, s)) in legacy_events.iter().zip(&sharded_events).enumerate() {
        assert_eq!(l, s, "event #{i} differs");
    }
    // And the serialized bytes match too, not just the parsed events.
    assert!(legacy == sharded, "byte-level divergence");
}

#[test]
fn multi_shard_fanout_trace_bytes_are_identical_across_lane_counts() {
    // This workload exercises the mailbox path: viewers roam POP→POP every
    // 3 polls, so cross-shard sends and barrier merges shape the trace.
    let reference = fanout_trace(1);
    assert!(!reference.is_empty(), "instrumented run must emit events");
    // Fan-out spans go through the epoch-barrier merge: open and close
    // land together at delivery time, and both survive the byte compare.
    let (opens, closes) = span_counts(&reference);
    assert!(opens > 0, "fanout trace carries no span_open events");
    assert_eq!(opens, closes, "fanout spans must be balanced");
    for lanes in LANE_SWEEP {
        for run in 0..2 {
            let trace = fanout_trace(lanes);
            assert!(
                trace == reference,
                "fanout trace diverged: lanes={lanes} run={run}"
            );
        }
    }
}
