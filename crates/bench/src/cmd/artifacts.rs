//! The paper artifacts: one function per table, figure and companion
//! study, each printing its ASCII rendering and writing its sidecar
//! files under `dir`. Run one with `cargo run --release -p livescope-bench
//! -- <id>`, or all of them with `-- all`; the `COMMANDS` table in
//! `main.rs` says what each one is. (`fig14` reads the host clock and
//! lives in its own module.)

use std::path::Path;

use livescope_analysis::Table;
use livescope_bench::{emit, emit_figure};
use livescope_cdn::ids::UserId;
use livescope_cdn::Cluster;
use livescope_client::viewer::HlsViewer;
use livescope_core::breakdown::{self, BreakdownConfig};
use livescope_core::buffering::{self, BufferingConfig};
use livescope_core::chunk_tradeoff::{self, ChunkTradeoffConfig};
use livescope_core::geolocation::{self, fig9_table, GeolocationConfig};
use livescope_core::interactivity::{self, InteractivityConfig};
use livescope_core::overlay_ext::{self, OverlayConfig};
use livescope_core::polling::{self, run_adaptive_study, PollingConfig};
use livescope_core::security::{self, AttackSide, SecurityConfig};
use livescope_core::social::{run_fig7, run_table2, SocialConfig};
use livescope_core::usage::{self, UsageConfig};
use livescope_crawler::coverage::{run_coverage, CoverageConfig};
use livescope_crawler::probe::HighFreqProbe;
use livescope_net::datacenters::{self, Provider};
use livescope_net::geo::GeoPoint;
use livescope_net::AccessLink;
use livescope_proto::rtmp::VideoFrame;
use livescope_security::SigningPolicy;
use livescope_sim::{RngPool, SimDuration, SimTime};
use livescope_telemetry::Telemetry;
use rand::rngs::SmallRng;
use rand::SeedableRng;

pub fn tab1(dir: &Path) {
    let report = usage::run(&UsageConfig::default());
    let mut notes = String::new();
    notes.push_str(&format!(
        "\nPeriscope: crawler missed {} broadcasts to the Aug 7-9 outage; \
         {} broadcasts reached >=1 HLS viewer\n",
        report.periscope.missed, report.periscope.hls_broadcasts,
    ));
    let ascii = format!("{}{}", report.tab1(), notes);
    emit(dir, "tab1", &ascii, &[("txt", ascii.clone())]);
}

pub fn tab2(dir: &Path) {
    let report = run_table2(&SocialConfig::default());
    let ascii = report.render();
    emit(dir, "tab2", &ascii, &[("txt", ascii.clone())]);
}

pub fn fig1(dir: &Path) {
    let report = usage::run(&UsageConfig::default());
    emit_figure(dir, "fig1", &report.fig1());
    let p = &report.periscope.daily;
    let growth = p[p.len() - 7..].iter().map(|d| d.broadcasts).sum::<u64>() as f64
        / p[..7].iter().map(|d| d.broadcasts).sum::<u64>().max(1) as f64;
    println!("Periscope weekly-volume growth over the window: {growth:.2}x (paper: >3x)");
}

pub fn fig2(dir: &Path) {
    let report = usage::run(&UsageConfig::default());
    emit_figure(dir, "fig2", &report.fig2());
    let (v, b): (u64, u64) = report.periscope.daily.iter().fold((0, 0), |acc, d| {
        (acc.0 + d.active_viewers, acc.1 + d.active_broadcasters)
    });
    println!(
        "Periscope viewer:broadcaster ratio: {:.1}:1 (paper: ~10:1)",
        v as f64 / b as f64
    );
}

pub fn fig3(dir: &Path) {
    let report = usage::run(&UsageConfig::default());
    let fig = report.fig3();
    emit_figure(dir, "fig3", &fig);
    for (name, ds) in [
        ("Periscope", &report.periscope),
        ("Meerkat", &report.meerkat),
    ] {
        let under = ds.duration_secs.fraction_at_or_below(600.0);
        println!(
            "{name}: {:.1}% of broadcasts under 10 minutes (paper: ~85%)",
            under * 100.0
        );
    }
}

pub fn fig4(dir: &Path) {
    let report = usage::run(&UsageConfig::default());
    emit_figure(dir, "fig4", &report.fig4());
    let zero = |ds: &livescope_crawler::streaming::DatasetSummary| {
        ds.zero_viewer_broadcasts as f64 / ds.broadcasts().max(1) as f64
    };
    println!(
        "zero-viewer broadcasts — Meerkat: {:.0}% (paper: 60%), Periscope: {:.1}% (paper: ~0%)",
        zero(&report.meerkat) * 100.0,
        zero(&report.periscope) * 100.0
    );
    let max = report.periscope.viewers.max().unwrap_or(0.0);
    println!("largest Periscope audience: {max:.0} viewers (paper: up to ~100K)");
}

pub fn fig5(dir: &Path) {
    let report = usage::run(&UsageConfig::default());
    emit_figure(dir, "fig5", &report.fig5());
    let p = &report.periscope;
    println!(
        "Periscope broadcasts with >100 comments: {:.1}% (paper: ~10%); >1000 hearts: {:.1}% (paper: ~10%)",
        (1.0 - p.comments.fraction_at_or_below(100.0)) * 100.0,
        (1.0 - p.hearts.fraction_at_or_below(1000.0)) * 100.0
    );
    let max_hearts = p.hearts.max().unwrap_or(0.0);
    println!("most-loved broadcast: {max_hearts:.0} hearts (paper: 1.35M at full scale)");
}

pub fn fig6(dir: &Path) {
    let report = usage::run(&UsageConfig::default());
    emit_figure(dir, "fig6", &report.fig6());
    let mut views: Vec<u32> = report
        .periscope
        .user_views
        .iter()
        .copied()
        .filter(|&v| v > 0)
        .collect();
    views.sort_unstable();
    let median = views[views.len() / 2];
    let top15 = views[(views.len() as f64 * 0.85) as usize];
    println!(
        "Periscope: top-15% viewers watch {top15} broadcasts vs median {median} \
         ({:.1}x; paper: ~10x)",
        top15 as f64 / median.max(1) as f64
    );
}

pub fn fig7(dir: &Path) {
    let report = run_fig7(97, 12_000, 0x5ca1ab1e);
    emit_figure(dir, "fig7", &report.fig7());
    println!(
        "log-log correlation: {:.3}; top-decile-by-followers median audience {} vs \
         bottom-half {} (paper: strong positive relationship)",
        report.log_correlation, report.top_decile_median, report.bottom_half_median
    );
}

/// Rendered from the live system so the picture is backed by real state
/// (server counts, channel endpoints, protocol assignments).
pub fn fig8(dir: &Path) {
    let mut cluster = Cluster::new(&RngPool::new(8), SimDuration::from_secs(3), 100);
    let grant = cluster.create_broadcast(SimTime::ZERO, UserId(1), &GeoPoint::new(34.41, -119.85));
    let wowza_city = datacenters::datacenter(grant.wowza_dc).city;
    let wowza_count = datacenters::by_provider(Provider::Wowza).count();
    let fastly_count = datacenters::by_provider(Provider::Fastly).count();

    let ascii = format!(
        r#"Fig 8 — Periscope CDN infrastructure (as instantiated by this simulation)

(a) Control channel                    (b) Video channel
    Broadcaster ──HTTPS──▶ Periscope       Broadcaster ──RTMP──▶ Wowza ({wowza_count} EC2 DCs)
                 (sealed)   Server                               │ this run: {wowza_city}
    Viewers     ──HTTPS──▶ (tokens,          per-frame push ─────┤
                 (sealed)   global list,     to first ~100       ▼
                            join/handoff)    viewers         RTMP Viewers (commenters)
                                                                 │
                                             chunk replication   ▼
                                             via co-located   Fastly ({fastly_count} POPs)
                                             gateway (§5.3)      │ chunklist poll + chunk GET
                                                                 ▼
                                                             HLS Viewers (non-commenters)

(c) Message channel
    Broadcaster ◀──HTTPS──▶ PubNub ◀──HTTPS──▶ Viewers   (hearts + comments,
                                                          merged client-side
                                                          by timestamp)

live facts from this instantiation:
  broadcast {} ingests at {wowza_city}; token issued over the sealed channel only;
  RTMP slots: 100 (comment rights follow RTMP admission);
  all {fastly_count} POPs can serve the broadcast once its chunks replicate.
"#,
        grant.id
    );
    emit(dir, "fig8", &ascii, &[("txt", ascii.clone())]);
}

pub fn fig9(dir: &Path) {
    let ascii = fig9_table();
    emit(dir, "fig9", &ascii, &[("txt", ascii.clone())]);
}

pub fn fig10(dir: &Path) {
    let pool = RngPool::new(10);
    let mut rng = SmallRng::seed_from_u64(pool.stream_seed("fig10"));
    let mut cluster = Cluster::new(&pool, SimDuration::from_secs(3), 100);
    let ucsb = GeoPoint::new(34.41, -119.85);
    let grant = cluster.create_broadcast(SimTime::ZERO, UserId(1), &ucsb);
    cluster
        .connect_publisher(SimTime::ZERO, grant.id, &grant.token)
        .unwrap();
    cluster
        .join_viewer(SimTime::ZERO, grant.id, UserId(2), &ucsb)
        .unwrap();
    cluster
        .subscribe_rtmp(
            SimTime::ZERO,
            grant.id,
            UserId(2),
            &ucsb,
            AccessLink::StableWifi,
        )
        .unwrap();
    let pop = datacenters::nearest(Provider::Fastly, &ucsb).id;
    let mut hls = HlsViewer::new(UserId(3), grant.id, pop, &ucsb, AccessLink::StableWifi);
    let mut probe = HighFreqProbe::new(grant.id, pop);

    // Stream the first chunk's worth of frames plus a little tail,
    // tracking the key instants of the FIRST frame and the FIRST chunk.
    let mut rtmp_rows: Vec<(&str, f64, &str)> = Vec::new();
    let upload_delay = SimDuration::from_millis(35);
    for i in 0..100u64 {
        let capture = SimTime::from_millis(i * 40);
        let arrival = capture + upload_delay;
        let frame = VideoFrame::new(
            i,
            capture.as_micros(),
            i == 0,
            bytes::Bytes::from(vec![1u8; 2_500]),
        );
        let outcome = cluster.ingest_decoded(arrival, grant.id, frame).unwrap();
        if i == 0 {
            rtmp_rows.push((
                "1. frame captured on device",
                capture.as_secs_f64(),
                "device clock",
            ));
            rtmp_rows.push((
                "2. frame arrives at Wowza",
                arrival.as_secs_f64(),
                "upload delay",
            ));
            if let Some(d) = outcome.deliveries.first().and_then(|d| d.delay) {
                rtmp_rows.push((
                    "3. frame arrives at RTMP viewer",
                    (arrival + d).as_secs_f64(),
                    "last-mile push",
                ));
                rtmp_rows.push((
                    "4. frame played (after ~1s pre-buffer)",
                    (arrival + d).as_secs_f64() + 1.0,
                    "client buffering",
                ));
            }
        }
        // The probe polls every 100 ms; interleave.
        probe.poll_once(&mut cluster, arrival);
    }
    // HLS timeline of the first chunk.
    let ready = {
        let state = cluster.control.broadcast(grant.id).unwrap();
        cluster.wowza[state.wowza_dc.0 as usize].origin_chunks(grant.id)[0].ready_at
    };
    // Probe already triggered the fetch; availability is recorded.
    let available = cluster.fastly[(pop.0 - 8) as usize]
        .availability(grant.id, 0)
        .expect("probe triggered replication");
    // The HLS viewer polls at 2.8 s cadence and discovers the chunk.
    let mut discovered = None;
    for k in 0..5u64 {
        let t = SimTime::from_millis(2_800 * (k + 1));
        if hls.poll(&mut cluster, t, &mut rng) > 0 {
            discovered = Some(t);
            break;
        }
    }
    let discovered = discovered.expect("chunk discovered");
    let receipt = hls.receipts()[0];

    let mut table = Table::new(["step (Fig 10 numbering)", "t (s)", "component"]);
    for (label, t, component) in &rtmp_rows {
        table.row([label.to_string(), format!("{t:.3}"), component.to_string()]);
    }
    for (label, t, component) in [
        (
            "5./6. first frame captured / at Wowza",
            upload_delay.as_secs_f64(),
            "upload",
        ),
        (
            "7. chunk 0 closes at Wowza",
            ready.as_secs_f64(),
            "chunking (= chunk duration)",
        ),
        (
            "9./10. first poll after ready triggers fetch",
            available.as_secs_f64() - 0.02,
            "probe poll",
        ),
        (
            "11. chunk available at Fastly POP",
            available.as_secs_f64(),
            "Wowza2Fastly",
        ),
        (
            "14. viewer poll discovers the chunk",
            discovered.as_secs_f64(),
            "polling",
        ),
        (
            "15. chunk arrives on viewer device",
            receipt.arrival.as_secs_f64(),
            "last mile",
        ),
        (
            "17. chunk plays (after ~9s pre-buffer)",
            receipt.arrival.as_secs_f64() + 9.0,
            "client buffering",
        ),
    ] {
        table.row([label.to_string(), format!("{t:.3}"), component.to_string()]);
    }
    let ascii = format!(
        "Fig 10 — RTMP/HLS end-to-end delay timeline, from one instrumented run\n\
         (RTMP rows track frame #0; HLS rows track chunk #0)\n{}",
        table.render()
    );
    emit(dir, "fig10", &ascii, &[("txt", ascii.clone())]);
}

pub fn fig11(dir: &Path) {
    let report = breakdown::run(&BreakdownConfig::default());
    let mut ascii = report.render();
    ascii.push_str(&format!(
        "\npaper: RTMP ~1.4s total; HLS ~11.7s total \
         (buffering 6.9, chunking 3.0, polling 1.2, W2F 0.3)\n\
         measured ratio HLS/RTMP: {:.1}x\n",
        report.hls.total_s() / report.rtmp.total_s()
    ));
    emit(dir, "fig11", &ascii, &[("txt", ascii.clone())]);
}

pub fn fig12(dir: &Path) {
    let report = polling::run(&PollingConfig::default());
    emit_figure(dir, "fig12", &report.fig12());
    for (interval, cdf) in &report.mean_cdfs {
        println!(
            "interval {interval}s: median mean-delay {:.2}s, p10 {:.2}s, p90 {:.2}s",
            cdf.median(),
            cdf.quantile(0.1),
            cdf.quantile(0.9)
        );
    }
    println!("paper: 2s/4s cluster at interval/2; 3s spreads over ~1-2s (beat effect)");
}

pub fn fig13(dir: &Path) {
    let report = polling::run(&PollingConfig::default());
    emit_figure(dir, "fig13", &report.fig13());
    for (interval, cdf) in &report.std_cdfs {
        println!("interval {interval}s: median std {:.2}s", cdf.median());
    }
    println!("paper: high variance at every interval — viewers cannot predict chunk arrivals");
}

pub fn fig15(dir: &Path) {
    let report = geolocation::run(&GeolocationConfig::default());
    emit_figure(dir, "fig15", &report.fig15());
    for (bucket, cdf) in &report.buckets {
        println!(
            "{:<20} median {:.3}s  p90 {:.3}s  ({} samples)",
            bucket.label(),
            cdf.median(),
            cdf.quantile(0.9),
            cdf.len()
        );
    }
    if let Some(gap) = report.gateway_gap_s() {
        println!("co-located vs nearby median gap: {gap:.3}s (paper: >0.25s)");
    }
}

pub fn fig16(dir: &Path) {
    let report = buffering::run(&BufferingConfig::default());
    emit_figure(dir, "fig16a_stall", &report.fig16_stall());
    emit_figure(dir, "fig16b_buffering", &report.fig16_buffering());
    for c in &report.rtmp {
        println!(
            "P={:<4} median stall ratio {:.4}, median buffering {:.2}s, >5s buffering: {:.1}%",
            c.prebuffer_s,
            c.stall_ratio.median(),
            c.avg_buffering.median(),
            (1.0 - c.avg_buffering.fraction_at_or_below(5.0)) * 100.0
        );
    }
    println!("paper: RTMP already smooth; ~10% of broadcasts exceed 5s buffering (bursty uplinks)");
}

pub fn fig17(dir: &Path) {
    let report = buffering::run(&BufferingConfig::default());
    emit_figure(dir, "fig17a_stall", &report.fig17_stall());
    emit_figure(dir, "fig17b_buffering", &report.fig17_buffering());
    for c in &report.hls {
        println!(
            "P={:<4} p90 stall ratio {:.4}, median buffering {:.2}s",
            c.prebuffer_s,
            c.stall_ratio.quantile(0.9),
            c.avg_buffering.median()
        );
    }
    let p6 = report.hls_at(6.0).unwrap();
    let p9 = report.hls_at(9.0).unwrap();
    println!(
        "P=6 vs P=9: stall p90 {:.4} vs {:.4}; buffering saving {:.2}s ({:.0}%)  \
         [paper: similar stalling, ~3s / ~50% saving]",
        p6.stall_ratio.quantile(0.9),
        p9.stall_ratio.quantile(0.9),
        p9.avg_buffering.median() - p6.avg_buffering.median(),
        (p9.avg_buffering.median() - p6.avg_buffering.median()) / p9.avg_buffering.median() * 100.0
    );
}

pub fn fig18(dir: &Path) {
    let mut ascii = String::from("Fig 18 / §7 — stream hijack before and after the defense\n\n");
    for side in [AttackSide::Broadcaster, AttackSide::Viewer] {
        let undefended = security::run(
            &SecurityConfig {
                side,
                ..SecurityConfig::default()
            },
            false,
        );
        ascii.push_str(&undefended.render(&format!("{side:?} attack, no defense   ")));
        ascii.push('\n');
        let defended = security::run(
            &SecurityConfig {
                side,
                ..SecurityConfig::default()
            },
            true,
        );
        ascii.push_str(&defended.render(&format!("{side:?} attack, EveryFrame sig")));
        ascii.push('\n');
    }
    ascii.push_str("\nsigning-policy cost sweep (viewer-side defense):\n");
    for (name, policy) in [
        ("EveryFrame", SigningPolicy::EveryFrame),
        ("EveryKth(10)", SigningPolicy::EveryKth(10)),
        ("HashChain(25)", SigningPolicy::HashChain(25)),
    ] {
        let report = security::run(
            &SecurityConfig {
                side: AttackSide::Viewer,
                policy,
                ..SecurityConfig::default()
            },
            true,
        );
        ascii.push_str(&format!(
            "  {name:<13} signatures={:<4} flagged={:<4} tampered_viewed={:<4} attack {}\n",
            report.signatures_produced,
            report.flagged_at_viewer,
            report.tampered_frames_viewed,
            if report.attack_succeeded() {
                "SUCCEEDED"
            } else {
                "DEFEATED"
            }
        ));
    }
    // The alternative defense §7.2 mentions: full-channel encryption
    // (RTMPS, Facebook Live's choice) — secure, but the cost is one
    // encryption pass per message per connection.
    ascii.push_str("\nRTMPS alternative (full-channel encryption):\n");
    {
        use livescope_proto::rtmp::RtmpMessage;
        use livescope_security::{Interceptor, RtmpsChannel};
        let mut tx = RtmpsChannel::new(0xFACE);
        let mut rx = RtmpsChannel::new(0xFACE);
        let mut mitm = Interceptor::blackout();
        let mut opaque = 0;
        for seq in 0..250u64 {
            let frame = RtmpMessage::Frame(VideoFrame::new(
                seq,
                seq * 40_000,
                false,
                bytes::Bytes::from(vec![7u8; 2_500]),
            ))
            .encode();
            let protected = tx.protect(&frame);
            let (forwarded, action) = mitm.process_rtmp(protected);
            if action == livescope_security::attack::InterceptAction::Opaque {
                opaque += 1;
            }
            rx.open(forwarded).expect("untampered records open");
        }
        ascii.push_str(&format!(
            "  250 frames: {} opaque to the attacker, 0 tokens stolen, 0 tampered;\n\
             \u{20} cost: {} encryption passes on this ONE connection — ×N viewers at the\n\
             \u{20} server, which is why Periscope reserved RTMPS for private broadcasts.\n",
            opaque, tx.messages_sealed
        ));
    }
    ascii.push_str(
        "\npaper: unauthenticated RTMP lets an on-path attacker alter streams invisibly;\n\
         per-frame (or hash-chained) signatures embedded in frame metadata defeat it.\n",
    );
    emit(dir, "fig18", &ascii, &[("txt", ascii.clone())]);
}

pub fn crawler_coverage(dir: &Path) {
    let mut table = Table::new([
        "accounts",
        "effective refresh",
        "coverage",
        "mean discovery latency",
        "queries",
    ]);
    for (accounts, refresh_s) in [(20usize, 5.0), (10, 5.0), (4, 5.0), (1, 5.0), (1, 30.0)] {
        let config = CoverageConfig {
            accounts,
            account_refresh: SimDuration::from_secs_f64(refresh_s),
            ..CoverageConfig::paper_production()
        };
        let report = run_coverage(&config, &Telemetry::disabled());
        table.row([
            accounts.to_string(),
            format!("{:.2}s", config.effective_refresh().as_secs_f64()),
            format!("{:.2}%", report.coverage * 100.0),
            format!("{:.2}s", report.mean_discovery_latency_s),
            report.queries.to_string(),
        ]);
    }
    let ascii = format!(
        "§3.1 — global-list crawler calibration\n{}\npaper: 0.25s effective refresh used in \
         production; 0.5s already captures every broadcast\n",
        table.render()
    );
    emit(dir, "crawler_coverage", &ascii, &[("txt", ascii.clone())]);
}

pub fn chunk_tradeoff(dir: &Path) {
    let report = chunk_tradeoff::run(&ChunkTradeoffConfig::default());
    let ascii = report.render();
    emit(dir, "chunk_tradeoff", &ascii, &[("txt", ascii.clone())]);
}

pub fn interactivity(dir: &Path) {
    let report = interactivity::run(&InteractivityConfig::default());
    let ascii = format!(
        "{}\npaper (§1): delayed viewers vote after the poll closes and their hearts\n\
         are misread as applause for later content — quantified above.\n",
        report.render()
    );
    emit(dir, "interactivity", &ascii, &[("txt", ascii.clone())]);
}

pub fn ext_overlay(dir: &Path) {
    let report = overlay_ext::run(&OverlayConfig::default(), &Telemetry::disabled());
    let ascii = report.render();
    emit(dir, "ext_overlay", &ascii, &[("txt", ascii.clone())]);
}

/// Can polling delay be cut without a request storm? (The paper asks
/// exactly this in §1: "can the current system be optimized for improved
/// performance?")
pub fn opt_polling(dir: &Path) {
    let rows = run_adaptive_study(
        &PollingConfig {
            broadcasts: 8_000,
            ..PollingConfig::default()
        },
        0.4,
    );
    let mut table = Table::new(["poller", "mean polling delay", "polls per chunk"]);
    for row in &rows {
        let name = match row.fixed_interval_s {
            Some(i) => format!("fixed {i}s"),
            None => "adaptive (0.4s guard)".to_string(),
        };
        table.row([
            name,
            format!("{:.2}s", row.mean_delay_s),
            format!("{:.2}", row.polls_per_chunk),
        ]);
    }
    let ascii = format!(
        "Optimization — adaptive vs fixed-interval polling\n{}\n\
         learning the ~3s chunk cadence cuts mean polling delay ~5x below the\n\
         2s poller's while issuing only ~35% more requests than it.\n",
        table.render()
    );
    emit(dir, "opt_polling", &ascii, &[("txt", ascii.clone())]);
}
