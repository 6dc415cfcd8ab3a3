//! Figs 10–11: the controlled end-to-end delay breakdown experiment.
//!
//! The paper's setup (§4.3): one phone broadcasts, one phone watches over
//! RTMP, one phone is forced onto HLS (by deleting the RTMP URL from the
//! join response), all on stable WiFi — while the high-frequency crawler
//! polls Fastly every 0.1 s, which also makes it the "first viewer" that
//! triggers every chunk replication. Each run yields one six-component
//! breakdown per protocol; the experiment repeats 10× and averages.
//!
//! Paper result (Fig 11): RTMP ≈ 1.4 s end-to-end vs HLS ≈ 11.7 s, the
//! difference dominated by client buffering (6.9 s), chunking (3 s) and
//! polling (1.2 s).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use livescope_analysis::{DelayBreakdown, Table};
use livescope_cdn::ids::{BroadcastId, UserId};
use livescope_cdn::Cluster;
use livescope_client::broadcaster::{capture_schedule, FrameSource, UplinkClass, UplinkModel};
use livescope_client::playback::{emit_playout, simulate_playback};
use livescope_client::viewer::{HlsViewer, RtmpViewer};
use livescope_crawler::probe::HighFreqProbe;
use livescope_net::datacenters::{self, Provider};
use livescope_net::geo::GeoPoint;
use livescope_net::AccessLink;
use livescope_sim::{RngPool, SchedulerBackend, ShardId, ShardedScheduler, SimDuration, SimTime};
use livescope_telemetry::{Protocol, Telemetry};

/// Controlled-experiment parameters.
#[derive(Clone, Debug)]
pub struct BreakdownConfig {
    /// Repetitions to average over (the paper's 10).
    pub repetitions: usize,
    /// Stream length per run, seconds.
    pub stream_secs: u64,
    /// Chunk duration (3 s in production).
    pub chunk_secs: f64,
    /// RTMP client pre-buffer (decompiled: ≈1 s).
    pub rtmp_prebuffer_s: f64,
    /// HLS client pre-buffer (decompiled: 9 s).
    pub hls_prebuffer_s: f64,
    /// HLS viewer poll interval (observed: 2–2.8 s).
    pub viewer_poll_s: f64,
    /// Run the 0.1 s crawler probe concurrently (the paper's setup). When
    /// off, the viewer's own polls trigger replication and polling delay
    /// roughly doubles.
    pub with_probe: bool,
    pub broadcaster_location: GeoPoint,
    pub viewer_location: GeoPoint,
    pub seed: u64,
}

impl Default for BreakdownConfig {
    fn default() -> Self {
        BreakdownConfig {
            repetitions: 10,
            stream_secs: 60,
            chunk_secs: 3.0,
            rtmp_prebuffer_s: 1.0,
            hls_prebuffer_s: 9.0,
            viewer_poll_s: 2.8,
            with_probe: true,
            // The paper's lab: UC Santa Barbara.
            broadcaster_location: GeoPoint {
                lat: 34.41,
                lon: -119.85,
            },
            viewer_location: GeoPoint {
                lat: 34.42,
                lon: -119.70,
            },
            seed: 0xF1611,
        }
    }
}

/// Averaged breakdowns plus per-run raw values.
#[derive(Clone, Debug)]
pub struct BreakdownReport {
    pub rtmp: DelayBreakdown,
    pub hls: DelayBreakdown,
    pub rtmp_runs: Vec<DelayBreakdown>,
    pub hls_runs: Vec<DelayBreakdown>,
}

impl BreakdownReport {
    /// Fig 11 as text.
    pub fn render(&self) -> String {
        let mut out = String::from("Fig 11 — end-to-end delay breakdown (averaged)\n");
        out.push_str(&self.hls.render_row("HLS"));
        out.push('\n');
        out.push_str(&self.rtmp.render_row("RTMP"));
        out.push('\n');
        let mut table = Table::new([
            "protocol",
            "upload",
            "chunking",
            "wowza2fastly",
            "polling",
            "last-mile",
            "buffering",
            "total",
        ]);
        for (name, b) in [("RTMP", &self.rtmp), ("HLS", &self.hls)] {
            table.row([
                name.to_string(),
                format!("{:.3}", b.upload_s),
                format!("{:.3}", b.chunking_s),
                format!("{:.3}", b.wowza2fastly_s),
                format!("{:.3}", b.polling_s),
                format!("{:.3}", b.last_mile_s),
                format!("{:.3}", b.buffering_s),
                format!("{:.3}", b.total_s()),
            ]);
        }
        out.push_str(&table.render());
        out
    }
}

/// Runs the full controlled experiment (telemetry disabled).
pub fn run(config: &BreakdownConfig) -> BreakdownReport {
    run_traced(config, &Telemetry::disabled())
}

/// Runs the full controlled experiment with every component instrumented
/// through `telemetry`. The trace carries enough events
/// (`RtmpUnitDelivered`, `ChunkCompleted`, `ChunkDelivered`,
/// `JoinPlayout`, …) for [`livescope_telemetry::ObsReport::derive`] to
/// re-derive the six-component Fig 10 breakdown (the report's `ledger`)
/// independently of the analytic report returned here. A disabled handle
/// makes this identical to [`run`].
pub fn run_traced(config: &BreakdownConfig, telemetry: &Telemetry) -> BreakdownReport {
    assert!(config.repetitions > 0, "need at least one repetition");
    let mut rtmp_runs = Vec::with_capacity(config.repetitions);
    let mut hls_runs = Vec::with_capacity(config.repetitions);
    for rep in 0..config.repetitions {
        let (rtmp, hls) = run_once(
            config,
            config.seed ^ (rep as u64).wrapping_mul(0x9E37),
            telemetry,
        );
        rtmp_runs.push(rtmp);
        hls_runs.push(hls);
    }
    BreakdownReport {
        rtmp: DelayBreakdown::average(&rtmp_runs),
        hls: DelayBreakdown::average(&hls_runs),
        rtmp_runs,
        hls_runs,
    }
}

/// Everything an in-flight run mutates, packaged as the scheduler's shard
/// state. The controlled experiment is a one-room lab — a single
/// broadcaster, two viewers, one probe — so it occupies exactly one shard.
struct RunWorld {
    cluster: Cluster,
    rng: SmallRng,
    rtmp_viewer: RtmpViewer,
    hls_viewer: HlsViewer,
    probe: HighFreqProbe,
    /// Frames are drawn as they arrive, not materialised up front: the
    /// uplink delivers in order, so the `i`th arrival is the `i`th frame.
    source: FrameSource,
    captures: Vec<SimTime>,
    broadcast: BroadcastId,
}

impl RunWorld {
    fn frame_arrival(&mut self, now: SimTime, i: usize) {
        let frame = self.source.next_frame();
        assert_eq!(frame.meta.sequence, i as u64, "frames arrive in order");
        let meta = frame.meta.clone();
        let capture = self.captures[i];
        let outcome = self
            .cluster
            .ingest_decoded(now, self.broadcast, frame)
            .expect("publisher session is live");
        for delivery in outcome.deliveries {
            if delivery.viewer == UserId(2) {
                if let Some(delay) = delivery.delay {
                    self.rtmp_viewer.record_push(&meta, capture, now, delay);
                }
            }
        }
    }
}

/// Seeds the three event streams. Insertion order (frames, then probe
/// ticks, then viewer polls) is load-bearing: with `(time, seq)` queue
/// ordering it reproduces the stable `(time, priority)` sort that defined
/// the experiment's event order before it moved onto the scheduler.
fn seed_events(
    sched: &mut ShardedScheduler<RunWorld>,
    config: &BreakdownConfig,
    arrivals: &[SimTime],
    poll_phase: SimDuration,
    end: SimTime,
) {
    for (i, &arrival) in arrivals.iter().enumerate() {
        sched.schedule(
            ShardId(0),
            arrival,
            Box::new(move |ctx, w: &mut RunWorld| w.frame_arrival(ctx.now(), i)),
        );
    }
    if config.with_probe {
        let mut t = SimTime::ZERO;
        while t <= end {
            sched.schedule(
                ShardId(0),
                t,
                Box::new(|ctx, w: &mut RunWorld| {
                    let now = ctx.now();
                    w.probe.poll_once(&mut w.cluster, now);
                }),
            );
            t += SimDuration::from_millis(100);
        }
    }
    let mut t = SimTime::ZERO + poll_phase;
    while t <= end {
        sched.schedule(
            ShardId(0),
            t,
            Box::new(|ctx, w: &mut RunWorld| {
                let now = ctx.now();
                w.hls_viewer.poll(&mut w.cluster, now, &mut w.rng);
            }),
        );
        t += SimDuration::from_secs_f64(config.viewer_poll_s);
    }
}

fn run_once(
    config: &BreakdownConfig,
    seed: u64,
    telemetry: &Telemetry,
) -> (DelayBreakdown, DelayBreakdown) {
    let pool = RngPool::new(seed);
    let mut cluster = Cluster::new(&pool, SimDuration::from_secs_f64(config.chunk_secs), 100);
    cluster.attach_telemetry(telemetry);
    let mut rng = SmallRng::seed_from_u64(pool.stream_seed("experiment"));

    let grant = cluster.create_broadcast(SimTime::ZERO, UserId(1), &config.broadcaster_location);
    cluster
        .connect_publisher(SimTime::ZERO, grant.id, &grant.token)
        .expect("fresh broadcast accepts its publisher");

    // RTMP viewer joins first (gets a slot).
    cluster
        .join_viewer(SimTime::ZERO, grant.id, UserId(2), &config.viewer_location)
        .expect("live broadcast admits viewers");
    cluster
        .subscribe_rtmp(
            SimTime::ZERO,
            grant.id,
            UserId(2),
            &config.viewer_location,
            AccessLink::StableWifi,
        )
        .expect("subscription succeeds");
    let mut rtmp_viewer = RtmpViewer::new(UserId(2));
    rtmp_viewer.attach_telemetry(telemetry, grant.id);

    // HLS viewer: joins normally, then ignores the RTMP grant — the paper
    // forced HLS by deleting the RTMP URL from the join response.
    cluster
        .join_viewer(SimTime::ZERO, grant.id, UserId(3), &config.viewer_location)
        .expect("live broadcast admits viewers");
    let pop = datacenters::nearest(Provider::Fastly, &config.viewer_location).id;
    let mut hls_viewer = HlsViewer::new(
        UserId(3),
        grant.id,
        pop,
        &config.viewer_location,
        AccessLink::StableWifi,
    );
    hls_viewer.attach_telemetry(telemetry);
    let mut probe = HighFreqProbe::new(grant.id, pop);
    probe.attach_telemetry(telemetry);

    // Frame pipeline: capture schedule → uplink arrivals.
    let n_frames = (config.stream_secs * 25) as usize;
    let captures = capture_schedule(SimTime::ZERO, n_frames);
    let uplink = UplinkModel::for_class(UplinkClass::Steady);
    let arrivals = uplink.arrival_times(
        &captures,
        livescope_client::broadcaster::DELTA_FRAME_BYTES,
        &mut rng,
    );

    // Drive the three event streams through the scheduler. The lab is one
    // shard, so nothing ever crosses a mailbox and the epoch length (which
    // only paces cross-shard mail) is arbitrary: one second.
    let tail = SimDuration::from_secs_f64(config.hls_prebuffer_s + 10.0);
    let end = SimTime::ZERO + SimDuration::from_secs(config.stream_secs) + tail;
    let poll_phase = SimDuration::from_secs_f64(rng.gen_range(0.0..config.viewer_poll_s));
    let world = RunWorld {
        cluster,
        rng,
        rtmp_viewer,
        hls_viewer,
        probe,
        source: FrameSource::new(0),
        captures,
        broadcast: grant.id,
    };
    let mut sched = ShardedScheduler::new(pool, vec![world], SimDuration::from_secs(1));
    seed_events(&mut sched, config, &arrivals, poll_phase, end);
    sched.run();
    let world = sched.into_states().pop().expect("one shard");
    let RunWorld {
        mut cluster,
        rtmp_viewer,
        hls_viewer,
        ..
    } = world;

    // --- Assemble the six components. --------------------------------
    let (upload_s, rtmp_last_mile) = rtmp_viewer.mean_delays();
    let rtmp_playback = simulate_playback(
        rtmp_viewer.units(),
        SimDuration::from_secs_f64(config.rtmp_prebuffer_s),
    );
    emit_playout(telemetry, grant.id.0, 2, Protocol::Rtmp, &rtmp_playback);
    let rtmp = DelayBreakdown {
        upload_s,
        chunking_s: 0.0,
        wowza2fastly_s: 0.0,
        polling_s: 0.0,
        last_mile_s: rtmp_last_mile,
        buffering_s: rtmp_playback.avg_buffering_s,
    };

    let receipts = hls_viewer.receipts();
    let origin_ready: std::collections::HashMap<u64, SimTime> = {
        let state = cluster
            .control
            .broadcast(grant.id)
            .expect("broadcast exists");
        cluster.wowza[state.wowza_dc.0 as usize]
            .origin_chunks(grant.id)
            .iter()
            .map(|rc| (rc.chunk.seq, rc.ready_at))
            .collect()
    };
    let mean = |f: &dyn Fn(&livescope_client::viewer::ChunkReceipt) -> f64| {
        if receipts.is_empty() {
            0.0
        } else {
            receipts.iter().map(f).sum::<f64>() / receipts.len() as f64
        }
    };
    let hls_playback = simulate_playback(
        &hls_viewer.units(),
        SimDuration::from_secs_f64(config.hls_prebuffer_s),
    );
    emit_playout(telemetry, grant.id.0, 3, Protocol::Hls, &hls_playback);
    let hls = DelayBreakdown {
        upload_s,
        chunking_s: mean(&|r| r.duration_us as f64 / 1e6),
        wowza2fastly_s: mean(&|r| {
            r.available_at_pop
                .saturating_since(origin_ready[&r.seq])
                .as_secs_f64()
        }),
        polling_s: mean(&|r| {
            r.discovered_at
                .saturating_since(r.available_at_pop)
                .as_secs_f64()
        }),
        last_mile_s: mean(&|r| r.arrival.saturating_since(r.discovered_at).as_secs_f64()),
        buffering_s: hls_playback.avg_buffering_s,
    };
    // The lab hangs up last, once the origin has been read: the broadcast
    // span closes in every repetition and nothing measured above moves.
    cluster
        .end_broadcast(end, grant.id, &grant.token)
        .expect("live broadcast ends with its own token");
    (rtmp, hls)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> BreakdownConfig {
        BreakdownConfig {
            repetitions: 2,
            stream_secs: 40,
            ..BreakdownConfig::default()
        }
    }

    #[test]
    fn hls_is_roughly_an_order_slower_than_rtmp() {
        let report = run(&quick_config());
        let rtmp = report.rtmp.total_s();
        let hls = report.hls.total_s();
        assert!(
            hls / rtmp > 4.0,
            "paper shows ~8x (1.4 vs 11.7); got rtmp={rtmp:.2}, hls={hls:.2}"
        );
        assert!((0.5..4.0).contains(&rtmp), "RTMP total {rtmp}");
        assert!((7.0..20.0).contains(&hls), "HLS total {hls}");
    }

    #[test]
    fn hls_components_have_the_paper_shape() {
        let report = run(&quick_config());
        let h = &report.hls;
        // Buffering is the largest component, then chunking, then polling.
        assert!(h.buffering_s > h.chunking_s, "{h:?}");
        assert!(h.chunking_s > h.polling_s, "{h:?}");
        assert!(h.polling_s > h.wowza2fastly_s, "{h:?}");
        // Chunking ≈ the 3 s chunk duration.
        assert!(
            (2.0..4.0).contains(&h.chunking_s),
            "chunking {}",
            h.chunking_s
        );
        // Polling with a 2.8 s interval and the 0.1 s probe ≈ 1.4 s mean.
        assert!((0.5..2.8).contains(&h.polling_s), "polling {}", h.polling_s);
    }

    #[test]
    fn rtmp_has_no_chunk_path_components() {
        let report = run(&quick_config());
        assert_eq!(report.rtmp.chunking_s, 0.0);
        assert_eq!(report.rtmp.wowza2fastly_s, 0.0);
        assert_eq!(report.rtmp.polling_s, 0.0);
        assert!(
            report.rtmp.buffering_s > 0.3,
            "pre-buffer must dominate RTMP"
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = run(&quick_config());
        let b = run(&quick_config());
        assert_eq!(a.rtmp, b.rtmp);
        assert_eq!(a.hls, b.hls);
    }

    #[test]
    fn without_the_probe_polling_delay_grows() {
        let with = run(&quick_config());
        let without = run(&BreakdownConfig {
            with_probe: false,
            ..quick_config()
        });
        assert!(
            without.hls.polling_s > with.hls.polling_s,
            "probe-less polling {} should exceed probed {}",
            without.hls.polling_s,
            with.hls.polling_s
        );
    }

    #[test]
    fn report_renders_both_rows() {
        let report = run(&quick_config());
        let text = report.render();
        assert!(text.contains("RTMP"));
        assert!(text.contains("HLS"));
        assert!(text.contains("Buffering"));
    }
}
