//! Fig 14: server cost of RTMP vs HLS fan-out as the audience grows.
//!
//! The paper ran a Wowza Streaming Engine on a laptop and measured CPU
//! while attaching 100–500 viewers: RTMP cost grows much faster than HLS
//! because it does per-frame, per-viewer work (encode + push ~40 ms
//! frames) while HLS serves a chunklist poll every ~2.8 s and a 3 s chunk
//! per viewer per chunk period.
//!
//! Our substitute does the *actual work* in-process: real frames flow
//! through the real ingest server (serializing a frame message per
//! subscriber), and real polls/chunk downloads flow through the real edge
//! POP. Two cost views are reported:
//!
//! * **operation counts and bytes** — exact, deterministic, machine-
//!   independent (unit-tested, and pinned at 100/300/500 viewers);
//! * **measured busy time** (the `livescope fig14` table) — wall-clock
//!   cost of performing the work, whose *shape* (RTMP ≫ HLS, gap
//!   widening with viewers) is the paper's result.

use bytes::Bytes;

use livescope_cdn::ids::{BroadcastId, UserId};
use livescope_cdn::{FastlyPop, FetchPlan, WowzaServer};
use livescope_net::datacenters::DatacenterId;
use livescope_net::geo::GeoPoint;
use livescope_net::{AccessLink, Link};
use livescope_proto::rtmp::VideoFrame;
use livescope_sim::{RngPool, SimDuration, SimTime};

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Fan-out workload parameters.
#[derive(Clone, Debug)]
pub struct ScalabilityConfig {
    /// Audience sizes to sweep (paper: 100–500).
    pub viewer_counts: Vec<usize>,
    /// Stream length driven through the servers, seconds.
    pub stream_secs: u64,
    /// Chunk duration, seconds.
    pub chunk_secs: f64,
    /// HLS viewer poll interval, seconds.
    pub poll_interval_s: f64,
    pub seed: u64,
}

impl Default for ScalabilityConfig {
    fn default() -> Self {
        ScalabilityConfig {
            viewer_counts: vec![100, 200, 300, 400, 500],
            stream_secs: 30,
            chunk_secs: 3.0,
            poll_interval_s: 2.8,
            seed: 0xF1614,
        }
    }
}

/// Cost observed for one (protocol, audience) cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FanoutCost {
    pub viewers: usize,
    /// Server operations performed (frame pushes, or polls + chunk serves).
    pub operations: u64,
    /// Bytes moved to viewers.
    pub bytes: u64,
}

/// The sweep result.
#[derive(Clone, Debug)]
pub struct ScalabilityReport {
    pub rtmp: Vec<FanoutCost>,
    pub hls: Vec<FanoutCost>,
    pub stream_secs: u64,
}

impl ScalabilityReport {
    /// Ratio of RTMP to HLS operations at the largest audience — the
    /// paper's "gap elevates with the number of viewers".
    pub fn peak_op_ratio(&self) -> f64 {
        match (self.rtmp.last(), self.hls.last()) {
            (Some(r), Some(h)) if h.operations > 0 => r.operations as f64 / h.operations as f64,
            _ => 0.0,
        }
    }

    /// Renders the Fig 14 table (operations as the CPU proxy).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Fig 14 — server work vs audience size (operations / bytes over the stream)\n",
        );
        let mut table = livescope_analysis::Table::new([
            "viewers", "RTMP ops", "RTMP MB", "HLS ops", "HLS MB", "op ratio",
        ]);
        for (r, h) in self.rtmp.iter().zip(&self.hls) {
            table.row([
                r.viewers.to_string(),
                r.operations.to_string(),
                format!("{:.1}", r.bytes as f64 / 1e6),
                h.operations.to_string(),
                format!("{:.1}", h.bytes as f64 / 1e6),
                format!("{:.1}x", r.operations as f64 / h.operations.max(1) as f64),
            ]);
        }
        out.push_str(&table.render());
        out
    }
}

fn test_frame(seq: u64) -> VideoFrame {
    let size = if seq.is_multiple_of(50) { 9_000 } else { 2_500 };
    VideoFrame::new(
        seq,
        seq * 40_000,
        seq.is_multiple_of(50),
        Bytes::from(vec![7u8; size]),
    )
}

fn viewer_link() -> Link {
    Link::device_path(
        &GeoPoint {
            lat: 34.41,
            lon: -119.85,
        },
        &GeoPoint {
            lat: 37.34,
            lon: -121.89,
        },
        AccessLink::StableWifi,
    )
}

/// Drives `viewers` RTMP subscribers through a real ingest server for the
/// configured stream and returns the cost.
pub fn run_rtmp_cell(config: &ScalabilityConfig, viewers: usize) -> FanoutCost {
    let mut server = WowzaServer::new(
        DatacenterId(1),
        SimDuration::from_secs_f64(config.chunk_secs),
    );
    let b = BroadcastId(1);
    server.register_broadcast(b, "tok".into());
    server.connect_publisher(b, "tok").expect("token matches");
    for v in 0..viewers {
        server
            .subscribe(b, UserId(v as u64), viewer_link())
            .expect("broadcast registered");
    }
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let frames = config.stream_secs * 25;
    for i in 0..frames {
        let now = SimTime::from_millis(i * 40);
        server
            .ingest_decoded(now, b, test_frame(i), &mut rng)
            .expect("publisher live");
    }
    FanoutCost {
        viewers,
        operations: server.work.frame_pushes,
        bytes: server.work.bytes_pushed,
    }
}

/// Drives `viewers` HLS pollers against a real edge POP (origin chunks
/// pre-assembled from the identical frame stream) and returns the cost.
pub fn run_hls_cell(config: &ScalabilityConfig, viewers: usize) -> FanoutCost {
    // Build the origin chunk store once via a real chunker.
    let mut chunker = livescope_cdn::Chunker::new(SimDuration::from_secs_f64(config.chunk_secs));
    let mut origin = Vec::new();
    let frames = config.stream_secs * 25;
    for i in 0..frames {
        let now = SimTime::from_millis(i * 40);
        if let Some(ready) = chunker.push(now, test_frame(i)) {
            origin.push(ready);
        }
    }
    let mut pop = FastlyPop::new(DatacenterId(8));
    let b = BroadcastId(1);
    let pool = RngPool::new(config.seed ^ 0xA5);
    let mut phase_rng = pool.fork("phases");
    use rand::Rng;
    let mut phases: Vec<f64> = (0..viewers)
        .map(|_| phase_rng.gen_range(0.0..config.poll_interval_s))
        .collect();
    // Number the viewers in phase order: a step spans one poll interval,
    // so the loop below then reaches the POP in `(t, viewer)` order.
    phases.sort_by(f64::total_cmp);
    let mut have: Vec<Option<u64>> = vec![None; viewers];
    // Time-ordered polling by all viewers; chunk downloads when new.
    let end = config.stream_secs as f64 + config.chunk_secs;
    let fetch_delay = |_: &FetchPlan| SimDuration::from_millis(30);
    for step in 0.. {
        let mut any = false;
        for v in 0..viewers {
            let t = phases[v] + step as f64 * config.poll_interval_s;
            if t > end {
                continue;
            }
            any = true;
            let now = SimTime::from_secs_f64(t);
            let resp = pop.poll(now, b, &origin, fetch_delay);
            for entry in &resp.chunklist.entries {
                if have[v].is_some_and(|h| entry.seq <= h) {
                    continue;
                }
                // Server-side cost only: serve the encoded container;
                // decoding is client work and not billed to the POP.
                if pop.serve_chunk(now, b, entry.seq).is_some() {
                    have[v] = Some(entry.seq);
                }
            }
        }
        if !any {
            break;
        }
    }
    FanoutCost {
        viewers,
        operations: pop.work.polls_served + pop.work.chunks_served,
        bytes: pop.work.bytes_served,
    }
}

/// Runs the full sweep.
pub fn run(config: &ScalabilityConfig) -> ScalabilityReport {
    let rtmp = config
        .viewer_counts
        .iter()
        .map(|&v| run_rtmp_cell(config, v))
        .collect();
    let hls = config
        .viewer_counts
        .iter()
        .map(|&v| run_hls_cell(config, v))
        .collect();
    ScalabilityReport {
        rtmp,
        hls,
        stream_secs: config.stream_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ScalabilityConfig {
        ScalabilityConfig {
            viewer_counts: vec![50, 100, 200],
            stream_secs: 12,
            ..ScalabilityConfig::default()
        }
    }

    #[test]
    fn rtmp_work_is_linear_in_audience() {
        let config = quick();
        let report = run(&config);
        let per_viewer: Vec<f64> = report
            .rtmp
            .iter()
            .map(|c| c.operations as f64 / c.viewers as f64)
            .collect();
        // frames × 1 push per viewer: identical per-viewer cost.
        for w in per_viewer.windows(2) {
            assert!(
                (w[0] - w[1]).abs() < 1e-9,
                "non-linear RTMP: {per_viewer:?}"
            );
        }
        assert_eq!(report.rtmp[0].operations, 12 * 25 * 50);
    }

    #[test]
    fn rtmp_dwarfs_hls_and_the_gap_widens() {
        let report = run(&quick());
        for (r, h) in report.rtmp.iter().zip(&report.hls) {
            assert!(
                r.operations > 10 * h.operations,
                "{} viewers: rtmp {} vs hls {}",
                r.viewers,
                r.operations,
                h.operations
            );
            assert!(
                r.bytes > h.bytes,
                "RTMP moves more bytes than chunk serving"
            );
        }
        let gap_small = report.rtmp[0].operations - report.hls[0].operations;
        let gap_large = report.rtmp[2].operations - report.hls[2].operations;
        assert!(gap_large > gap_small, "gap must widen with audience");
    }

    #[test]
    fn hls_viewers_each_see_every_chunk() {
        // chunks served == viewers × chunk count (each viewer downloads
        // each chunk exactly once).
        let config = quick();
        let cell = run_hls_cell(&config, 40);
        let chunks = (config.stream_secs as f64 / config.chunk_secs).floor() as u64 - 1;
        // Allow the boundary chunk to be missed by late phases.
        let served_per_viewer = (cell.operations as f64) / 40.0;
        assert!(
            served_per_viewer > chunks as f64 * 0.8,
            "{served_per_viewer} ops/viewer"
        );
        assert!(cell.bytes > 0);
    }

    #[test]
    fn peak_ratio_is_reported() {
        let report = run(&quick());
        assert!(report.peak_op_ratio() > 10.0);
        assert!(report.render().contains("op ratio"));
    }

    /// `(viewers, RTMP operations, HLS operations)` over the 10 s stream:
    /// the exact, machine-independent half of Fig 14, so a change to the
    /// push or poll path that alters what the servers do fails here
    /// rather than showing up as a faster `fig14` busy time.
    const PINNED_OPS: [(usize, u64, u64); 3] = [
        (100, 25_000, 764),
        (300, 75_000, 2_298),
        (500, 125_000, 3_830),
    ];

    #[test]
    fn fanout_operations_are_pinned() {
        let config = ScalabilityConfig {
            stream_secs: 10,
            ..ScalabilityConfig::default()
        };
        for (viewers, rtmp_ops, hls_ops) in PINNED_OPS {
            assert_eq!(run_rtmp_cell(&config, viewers).operations, rtmp_ops);
            assert_eq!(run_hls_cell(&config, viewers).operations, hls_ops);
        }
    }

    /// `(interval, operations)`: chunklist polls plus chunk serves a real
    /// edge POP performs for 100 viewers of the 30 s Fig 14 stream at
    /// each poll interval. The chunk serves are the same 900 every time,
    /// so the spread is polls served — the request-rate consequence,
    /// exact.
    const PINNED_EDGE_OPS: [(f64, u64); 4] =
        [(1.0, 4_200), (2.0, 2_550), (3.0, 2_000), (4.0, 1_721)];

    #[test]
    fn edge_operations_per_poll_interval_are_pinned() {
        for (interval, edge_ops) in PINNED_EDGE_OPS {
            let edge = ScalabilityConfig {
                poll_interval_s: interval,
                ..ScalabilityConfig::default()
            };
            assert_eq!(run_hls_cell(&edge, 100).operations, edge_ops);
        }
    }

    #[test]
    fn determinism_per_seed() {
        let a = run(&quick());
        let b = run(&quick());
        assert_eq!(a.rtmp, b.rtmp);
        assert_eq!(a.hls, b.hls);
    }
}
