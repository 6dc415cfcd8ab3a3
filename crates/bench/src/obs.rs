//! Canonical observability workloads shared by the `obs_report` and
//! `bench_check` binaries.
//!
//! Both binaries must fold the *exact same* deterministic traces — the
//! report bytes are the regression-gate currency — so the workload
//! configurations and the `OBS_report.json` document layout live here,
//! in one place, instead of being copied into each `main`.

use livescope_cdn::{run_fanout, FanoutConfig, FanoutReport};
use livescope_core::experiments::breakdown::{self, BreakdownConfig};
use livescope_telemetry::{ObsReport, Telemetry};

/// Lane counts the fan-out's determinism contract is checked over
/// (mirrors `crates/core/tests/sharded_determinism.rs`).
pub const LANE_SWEEP: [usize; 3] = [1, 2, 6];

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

fn fold(telemetry: &Telemetry) -> ObsReport {
    assert_eq!(
        telemetry.dropped_events(),
        0,
        "capture buffer overflowed; raise CAPTURE_CAPACITY"
    );
    ObsReport::derive(&telemetry.events())
}

/// Runs the breakdown workload and folds its trace.
pub fn breakdown_obs() -> ObsReport {
    let telemetry = Telemetry::recording(CAPTURE_CAPACITY);
    breakdown::run_traced(&breakdown_config(), &telemetry);
    fold(&telemetry)
}

/// Runs the celebrity fan-out on `lanes` shards and folds its trace.
/// Also returns the workload's own report (delivery checksum, chunk and
/// event counts) for the regression gate.
pub fn celebrity_obs(lanes: usize) -> (ObsReport, FanoutReport) {
    let telemetry = Telemetry::recording(CAPTURE_CAPACITY);
    let report = run_fanout(&celebrity_config(), lanes, &telemetry);
    (fold(&telemetry), report)
}

/// The `OBS_report.json` document: run metadata (host-varying; never
/// gated), then the two folded reports and the fan-out's deterministic
/// counters. Field order is fixed so the bytes are reproducible.
pub fn obs_doc(breakdown: &ObsReport, celebrity: &ObsReport, fanout: &FanoutReport) -> String {
    format!(
        "{{\"report\":\"obs_report\",\"meta\":{},\"breakdown\":{},\"celebrity\":{},\
         \"fanout\":{{\"checksum\":\"{:#018x}\",\"chunks_served\":{},\"events_fired\":{}}}}}",
        serde_json::to_string(&crate::run_meta_json(breakdown_config().seed))
            .expect("meta renders"),
        breakdown.to_json(),
        celebrity.to_json(),
        fanout.checksum,
        fanout.chunks_served(),
        fanout.events_fired,
    )
}
