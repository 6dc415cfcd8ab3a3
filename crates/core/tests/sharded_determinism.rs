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
use livescope_core::experiments::breakdown::{run_traced, BreakdownConfig};
use livescope_core::experiments::overlay_ext::{self, OverlayConfig};
use livescope_net::datacenters::DatacenterId;
use livescope_sim::rng::splitmix64;
use livescope_telemetry::{event, ObsReport, Telemetry, TraceEvent};

const LANE_SWEEP: [usize; 3] = [1, 2, 6];

fn fanout_config() -> FanoutConfig {
    FanoutConfig {
        viewers_per_pop: 10,
        stream_secs: 20,
        roam_every: 3,
        ..FanoutConfig::default()
    }
}

/// Ring capacity above every event the traced runs here emit.
const CAPTURE: usize = 1 << 18;

/// Runs `workload` on a recording handle and renders its whole trace as
/// JSONL bytes; the ring must not have dropped an event.
fn capture<R>(workload: impl FnOnce(&Telemetry) -> R) -> Vec<u8> {
    let telemetry = Telemetry::recording(CAPTURE);
    workload(&telemetry);
    assert_eq!(telemetry.dropped_events(), 0, "the capture ring overflowed");
    event::write_jsonl(&telemetry.events()).into_bytes()
}

/// The multi-shard fan-out's trace bytes at `lanes`.
fn fanout_trace(lanes: usize) -> Vec<u8> {
    capture(|telemetry| run_fanout(&fanout_config(), lanes, telemetry))
}

#[test]
fn multi_shard_fanout_trace_bytes_are_identical_across_lane_counts() {
    // This workload exercises the mailbox path: viewers roam POP→POP every
    // 3 polls, so cross-shard sends and barrier merges shape the trace.
    let reference = fanout_trace(1);
    assert!(!reference.is_empty(), "instrumented run must emit events");
    // Fan-out spans go through the epoch-barrier merge: open and close
    // land together at delivery time, and both survive the byte compare.
    let trace = event::parse_jsonl_lossy(std::str::from_utf8(&reference).expect("utf8"));
    assert_eq!(trace.skipped_lines, 0, "{}", trace.first_skip);
    let spans = ObsReport::derive(&trace.events).spans;
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

/// An order-sensitive fingerprint of a trace: `splitmix64` folded over
/// the length, then every 8-byte word (the last one zero-padded).
fn fold_bytes(bytes: &[u8]) -> u64 {
    bytes
        .chunks(8)
        .fold(splitmix64(bytes.len() as u64), |acc, word| {
            let mut w = [0u8; 8];
            w[..word.len()].copy_from_slice(word);
            splitmix64(acc ^ u64::from_le_bytes(w))
        })
}

/// The multi-shard fan-out's full trace, pinned absolutely: unlike the
/// report's checksum, these bytes move if any two events swap places —
/// within a shard, across the mail merge, or in the trace merge.
#[test]
fn fanout_trace_bytes_are_pinned() {
    let trace = fanout_trace(1);
    assert_eq!(
        (trace.len(), fold_bytes(&trace)),
        (173_994, 0x98ee_9c36_f7f5_2d4a)
    );
}

/// The one-shard breakdown experiment's trace, pinned absolutely: every
/// RTMP frame, chunk and poll of two 40 s repetitions in fire order.
#[test]
fn breakdown_trace_bytes_are_pinned() {
    let config = BreakdownConfig {
        repetitions: 2,
        stream_secs: 40,
        ..BreakdownConfig::default()
    };
    let trace = capture(|telemetry| run_traced(&config, telemetry));
    assert_eq!(
        (trace.len(), fold_bytes(&trace)),
        (562_370, 0x164b_ed8a_fb7b_5c43)
    );
}

/// The §8 overlay experiment's trace, pinned absolutely: each frame's
/// `overlay_frame_delivered` event and its span, for the two-audience
/// sweep `tests/telemetry_trace.rs` also runs.
#[test]
fn overlay_trace_bytes_are_pinned() {
    let config = OverlayConfig {
        audiences: vec![100, 500],
        frames: 40,
        ..OverlayConfig::default()
    };
    let trace = capture(|telemetry| overlay_ext::run(&config, telemetry));
    assert_eq!(
        (trace.len(), fold_bytes(&trace)),
        (26_589, 0x4568_f4e6_890d_a22f)
    );
}

/// A ring far smaller than the fan-out's trace keeps exactly the newest
/// events of an unbounded capture and counts the rest as dropped, at one
/// lane and with worker threads. The barrier hands the ring whole merged
/// blocks (8 of them here, of up to 231 events), each longer than the
/// ring, so every batch overflows it.
#[test]
fn an_overflowing_ring_keeps_the_suffix_of_the_trace() {
    const RING: usize = 40;
    let unbounded = Telemetry::recording(CAPTURE);
    run_fanout(&fanout_config(), 1, &unbounded);
    let full = unbounded.events();
    assert!(full.len() > 20 * RING, "{} events", full.len());
    for lanes in [1, 2] {
        let ring = Telemetry::recording(RING);
        run_fanout(&fanout_config(), lanes, &ring);
        assert_eq!(ring.events(), full[full.len() - RING..], "lanes={lanes}");
        assert_eq!(
            ring.dropped_events(),
            (full.len() - RING) as u64,
            "lanes={lanes}"
        );
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

/// The 1,500-viewer lane-sweep workload (6 POPs × 250 viewers, 120 s,
/// a roam every 5 polls), pinned absolutely at every lane count: the
/// checksum folds every delivery, so any reorder or lost chunk moves it.
#[test]
fn lane_sweep_fanout_report_is_pinned() {
    let config = FanoutConfig {
        viewers_per_pop: 250,
        stream_secs: 120,
        roam_every: 5,
        seed: 0xF1610,
        ..FanoutConfig::default()
    };
    for lanes in LANE_SWEEP {
        let report = run_fanout(&config, lanes, &Telemetry::disabled());
        assert_eq!(
            (report.checksum, report.chunks_served(), report.events_fired),
            (0xe453_383f_136d_bcfa, 60_000, 66_617),
            "lanes={lanes}"
        );
    }
}
