//! The sharded scheduler's determinism contract, end to end: same seed ⇒
//! same trace **bytes**, for any lane count — checked on the multi-shard
//! (mailbox-crossing) celebrity fan-out workload, run twice per lane count
//! (every lane above the first is a scoped worker thread, so the sweep
//! covers real thread interleaving). The untraced report of the same
//! config is pinned absolutely, and a traced run must return it unchanged.
//!
//! The one-shard breakdown workload has nothing to sweep (lanes are
//! clamped to the shard count); its two-run byte identity lives in
//! `tests/telemetry_trace.rs`, and the kernel-level cross-check against
//! `Scheduler` in `tests/properties.rs`.

use livescope_cdn::fanout::PopStats;
use livescope_cdn::{run_fanout, FanoutConfig};
use livescope_net::datacenters::DatacenterId;
use livescope_telemetry::{event, ObsReport, SharedBuffer, Telemetry, TraceEvent};

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

#[test]
fn multi_shard_fanout_trace_bytes_are_identical_across_lane_counts() {
    // This workload exercises the mailbox path: viewers roam POP→POP every
    // 3 polls, so cross-shard sends and barrier merges shape the trace.
    let reference = fanout_trace(1);
    assert!(!reference.is_empty(), "instrumented run must emit events");
    // Fan-out spans go through the epoch-barrier merge: open and close
    // land together at delivery time, and both survive the byte compare.
    let text = std::str::from_utf8(&reference).expect("utf8");
    let spans = ObsReport::derive(&event::parse_jsonl(text).expect("parses")).spans;
    assert!(spans.opens > 0, "fanout trace carries no span_open events");
    assert_eq!(spans.opens, spans.closes, "fanout spans must be balanced");
    assert_eq!(
        (spans.unclosed, spans.unmatched_closes),
        (0, 0),
        "{spans:?}"
    );
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

/// The untraced report at [`fanout_config`], pinned absolutely: lane-count
/// identity alone would not notice a change that moves every lane the
/// same way.
#[test]
fn untraced_fanout_report_is_pinned() {
    let report = run_fanout(&fanout_config(), 1, &Telemetry::disabled());
    assert_eq!(report.checksum, 0x064d_9900_3aca_76db);
    assert_eq!(report.events_fired, 594);
    // (POP, polls, chunks served, bytes served, viewers done, roamed out,
    // checksum); every POP fetched the 7 chunks once and built 15 lists.
    let expected: [(u16, u64, u64, u64, u64, u64, u64); 6] = [
        (8, 89, 66, 12_448_680, 11, 29, 11_456_944_930_547_998_388),
        (9, 88, 74, 14_052_520, 11, 28, 3_909_114_326_991_307_491),
        (10, 88, 71, 13_459_205, 10, 28, 7_951_225_726_761_214_139),
        (11, 89, 71, 13_459_205, 9, 29, 15_738_954_528_845_013_740),
        (12, 90, 71, 13_459_205, 9, 30, 6_187_406_566_943_120_170),
        (13, 90, 67, 12_663_785, 10, 30, 10_550_773_504_739_686_003),
    ];
    let expected: Vec<PopStats> = expected
        .into_iter()
        .map(
            |(dc, polls, chunks, bytes, done, roams, checksum)| PopStats {
                dc: DatacenterId(dc),
                polls_served: polls,
                origin_fetches: 7,
                playlist_rebuilds: 15,
                chunks_served: chunks,
                bytes_served: bytes,
                viewers_done: done,
                roams_out: roams,
                checksum,
            },
        )
        .collect();
    assert_eq!(report.per_pop, expected);
}

/// Tracing only records: the fan-out skips building trace payloads when
/// nothing records them, and that branch must not move a delivery.
#[test]
fn traced_and_untraced_fanout_reports_are_equal() {
    let untraced = run_fanout(&fanout_config(), 1, &Telemetry::disabled());
    let recording = Telemetry::recording(1 << 16);
    let traced = run_fanout(&fanout_config(), 1, &recording);
    assert!(
        recording
            .events()
            .iter()
            .any(|e| matches!(e.event, TraceEvent::ChunkDelivered { .. })),
        "the traced run records its deliveries"
    );
    assert_eq!(traced, untraced);
}
