//! Extension (§8): the paper's proposed overlay-multicast delivery,
//! quantified against RTMP and HLS.
//!
//! §8 argues the RTMP/HLS dilemma — per-viewer push state vs. chunk+poll
//! latency — could be escaped by a receiver-driven multicast tree over
//! forwarding servers. The paper never builds it; this experiment does,
//! using `livescope-overlay`, and measures the two quantities the dilemma
//! trades off:
//!
//! * **origin cost**: transmissions the ingest server performs per frame;
//! * **end-to-end delay**: upload + delivery + the §6 client buffer.
//!
//! Expected outcome (and the point of §8): the overlay pins origin cost
//! at ≤ #gateways regardless of audience — HLS-class scalability — while
//! keeping push-grade latency — RTMP-class delay.

use livescope_analysis::{OnlineStats, Table};
use livescope_net::datacenters::DatacenterId;
use livescope_net::geo::GeoPoint;
use livescope_overlay::{Hierarchy, MulticastTree, OverlayNetwork};
use livescope_sim::{RngPool, SimTime};
use livescope_telemetry::{Span, Telemetry, TraceEvent};

/// Audience mix used for all three architectures: world cities weighted
/// toward North America, like the paper's traffic.
pub const VIEWER_CITIES: [(f64, f64); 8] = [
    (40.71, -74.01),  // New York
    (34.05, -118.24), // Los Angeles
    (41.88, -87.63),  // Chicago
    (51.51, -0.13),   // London
    (48.86, 2.35),    // Paris
    (35.68, 139.65),  // Tokyo
    (1.35, 103.82),   // Singapore
    (-33.87, 151.21), // Sydney
];

/// Experiment parameters.
#[derive(Clone, Debug)]
pub struct OverlayConfig {
    /// Audience sizes to sweep.
    pub audiences: Vec<usize>,
    /// Frames pushed per measurement.
    pub frames: u64,
    /// Frame payload bytes.
    pub frame_bytes: usize,
    /// Client pre-buffer applied on top of delivery (push paths), seconds.
    pub push_prebuffer_s: f64,
    /// Reference end-to-end delays measured by the Fig 11 experiment.
    pub rtmp_reference_delay_s: f64,
    pub hls_reference_delay_s: f64,
    pub seed: u64,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig {
            audiences: vec![100, 500, 2_000, 5_000],
            frames: 250,
            frame_bytes: 2_500,
            push_prebuffer_s: 1.0,
            rtmp_reference_delay_s: 1.03,
            hls_reference_delay_s: 10.75,
            seed: 0xF1688,
        }
    }
}

/// One architecture × audience measurement.
#[derive(Clone, Copy, Debug)]
pub struct OverlayCell {
    pub audience: usize,
    /// Origin transmissions per frame.
    pub origin_sends_per_frame: f64,
    /// Mean end-to-end delay including the client buffer, seconds.
    pub mean_delay_s: f64,
    /// 95th-percentile delivery delay (before buffering), seconds.
    pub p95_delivery_s: f64,
}

/// The sweep result.
#[derive(Clone, Debug)]
pub struct OverlayReport {
    pub overlay: Vec<OverlayCell>,
    pub config: OverlayConfig,
}

impl OverlayReport {
    /// Renders the three-way comparison table.
    pub fn render(&self) -> String {
        let mut table = Table::new([
            "audience",
            "RTMP origin sends/frame",
            "HLS origin sends/frame",
            "overlay origin sends/frame",
            "RTMP delay",
            "HLS delay",
            "overlay delay",
        ]);
        for cell in &self.overlay {
            // RTMP: the origin pushes every frame to every viewer.
            let rtmp_sends = cell.audience as f64;
            // HLS: the origin serves one chunk fetch per chunk (75 frames)
            // to the gateway replication path; per-frame cost ≈ 1/75 per
            // involved POP — effectively ~0.1.
            let hls_sends = 23.0 / 75.0;
            table.row([
                cell.audience.to_string(),
                format!("{rtmp_sends:.0}"),
                format!("{hls_sends:.2}"),
                format!("{:.1}", cell.origin_sends_per_frame),
                format!("{:.2}s", self.config.rtmp_reference_delay_s),
                format!("{:.2}s", self.config.hls_reference_delay_s),
                format!("{:.2}s", cell.mean_delay_s),
            ]);
        }
        format!(
            "Extension (§8) — overlay multicast vs RTMP vs HLS\n{}\n\
             overlay keeps origin cost ≤ 4 sends/frame at any audience (HLS-class\n\
             scalability) at push-grade delay (RTMP-class latency).\n",
            table.render()
        )
    }
}

/// Runs the sweep, emitting one `overlay_frame_delivered` trace event per
/// pushed frame (origin cost plus the slowest viewer's delivery delay)
/// into `telemetry`; pass [`Telemetry::disabled`] to record nothing.
pub fn run(config: &OverlayConfig, telemetry: &Telemetry) -> OverlayReport {
    let mut cells = Vec::with_capacity(config.audiences.len());
    for &audience in &config.audiences {
        // A fresh tree rooted at the Ashburn ingest site.
        let pool = RngPool::new(config.seed ^ audience as u64);
        let mut tree = MulticastTree::new(DatacenterId(0), Hierarchy::new());
        let mut net = OverlayNetwork::new(&pool);
        net.attach_telemetry(telemetry);
        for v in 0..audience as u64 {
            let (lat, lon) = VIEWER_CITIES[v as usize % VIEWER_CITIES.len()];
            let location = GeoPoint::new(lat, lon);
            let leaf = Hierarchy::nearest_leaf(&location);
            tree.join(v, leaf);
            net.attach_viewer(v, leaf, &location);
        }
        let mut delivery = OnlineStats::new();
        let mut root_sends = 0u64;
        let mut worst = Vec::new();
        for i in 0..config.frames {
            let now = SimTime::from_millis(i * 40);
            let outcome = net.push_frame(&tree, now, config.frame_bytes);
            root_sends += outcome.root_sends;
            let mut max_delay_us = 0u64;
            for (_, d) in &outcome.viewer_delays {
                delivery.push(d.as_secs_f64());
                worst.push(d.as_secs_f64());
                max_delay_us = max_delay_us.max(d.as_micros());
            }
            telemetry.emit(
                now.as_micros(),
                TraceEvent::OverlayFrameDelivered {
                    audience: audience as u64,
                    seq: i,
                    root_sends: outcome.root_sends,
                    viewers: outcome.viewer_delays.len() as u64,
                    max_delay_us,
                },
            );
            // The frame's multicast span: root push → slowest viewer.
            let span = Span::overlay_frame(audience as u64, i);
            telemetry.emit(now.as_micros(), span.open(0));
            telemetry.emit(now.as_micros() + max_delay_us, span.close());
        }
        worst.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let p95 = worst[(worst.len() as f64 * 0.95) as usize - 1];
        // End-to-end = upload (≈ the Fig 11 upload component) + delivery
        // + client buffer (same §6 strategy as RTMP, P≈1 s).
        let upload_s = 0.03;
        cells.push(OverlayCell {
            audience,
            origin_sends_per_frame: root_sends as f64 / config.frames as f64,
            mean_delay_s: upload_s + delivery.mean() + config.push_prebuffer_s,
            p95_delivery_s: p95,
        });
    }
    OverlayReport {
        overlay: cells,
        config: config.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> OverlayReport {
        run(
            &OverlayConfig {
                audiences: vec![100, 2_000],
                frames: 60,
                ..OverlayConfig::default()
            },
            &Telemetry::disabled(),
        )
    }

    #[test]
    fn origin_cost_is_flat_in_audience() {
        let report = quick();
        for cell in &report.overlay {
            assert!(
                cell.origin_sends_per_frame <= 4.0,
                "{} viewers: {} origin sends/frame",
                cell.audience,
                cell.origin_sends_per_frame
            );
        }
        let small = report.overlay[0].origin_sends_per_frame;
        let large = report.overlay[1].origin_sends_per_frame;
        assert!((small - large).abs() < 0.5, "origin cost must not grow");
    }

    #[test]
    fn delay_is_rtmp_class_not_hls_class() {
        let report = quick();
        for cell in &report.overlay {
            assert!(
                cell.mean_delay_s < 2.0,
                "{} viewers: overlay delay {}",
                cell.audience,
                cell.mean_delay_s
            );
            assert!(
                cell.mean_delay_s < report.config.hls_reference_delay_s / 3.0,
                "overlay must beat HLS by a wide margin"
            );
            // Delivery tail stays sub-second (one or two WAN hops).
            assert!(cell.p95_delivery_s < 1.0, "p95 {}", cell.p95_delivery_s);
        }
    }

    #[test]
    fn report_renders_all_three_architectures() {
        let text = quick().render();
        assert!(text.contains("RTMP origin"));
        assert!(text.contains("overlay delay"));
        assert!(text.contains("2000"));
    }
}
