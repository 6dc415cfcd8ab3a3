//! The sharded scheduler's determinism contract, end to end: same seed ⇒
//! same trace **bytes**, for any lane count — checked on the multi-shard
//! (mailbox-crossing) celebrity fan-out workload, run twice per lane count
//! (every lane above the first is a scoped worker thread, so the sweep
//! covers real thread interleaving).
//!
//! The one-shard breakdown workload has nothing to sweep (lanes are
//! clamped to the shard count); its two-run byte identity lives in
//! `tests/telemetry_trace.rs`, and the kernel-level cross-check against
//! `Scheduler` in `tests/properties.rs`.

#![forbid(unsafe_code)]

use livescope_cdn::{run_fanout, FanoutConfig};
use livescope_telemetry::{event, SharedBuffer, Telemetry, TraceEvent};

const LANE_SWEEP: [usize; 3] = [1, 2, 6];

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
