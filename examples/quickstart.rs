//! Quickstart: stand up the simulated Periscope-like delivery system,
//! run one broadcast with an RTMP viewer and an HLS viewer, and print the
//! end-to-end delay each one experiences.
//!
//! ```sh
//! cargo run -p livescope-examples --bin quickstart
//! ```

use livescope_cdn::ids::UserId;
use livescope_cdn::Cluster;
use livescope_client::broadcaster::{capture_schedule, FrameSource, UplinkClass, UplinkModel};
use livescope_client::playback::simulate_playback;
use livescope_client::viewer::{HlsViewer, RtmpViewer};
use livescope_net::datacenters::{self, Provider};
use livescope_net::geo::GeoPoint;
use livescope_net::AccessLink;
use livescope_proto::rtmp::RtmpMessage;
use livescope_sim::{RngPool, SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let pool = RngPool::new(42);
    let mut rng = SmallRng::seed_from_u64(pool.stream_seed("demo"));

    // 1. The delivery system: control plane + 8 Wowza DCs + 23 Fastly POPs.
    let mut cluster = Cluster::new(&pool, SimDuration::from_secs(3), 100);

    // 2. A broadcaster in San Francisco starts a stream.
    let sf = GeoPoint::new(37.77, -122.42);
    let grant = cluster.create_broadcast(SimTime::ZERO, UserId(1), &sf);
    println!("broadcast {} created", grant.id);
    println!(
        "  ingest: {} ({})",
        grant.rtmp_url,
        datacenters::datacenter(grant.wowza_dc).city
    );
    cluster
        .connect_publisher(SimTime::ZERO, grant.id, &grant.token)
        .unwrap();

    // 3. An early viewer gets RTMP (and comment rights); a later viewer
    //    would be handed to HLS once 100 slots fill. We force one HLS
    //    viewer the way the paper did for its controlled experiments.
    cluster
        .join_viewer(SimTime::ZERO, grant.id, UserId(2), &sf)
        .unwrap();
    cluster
        .subscribe_rtmp(
            SimTime::ZERO,
            grant.id,
            UserId(2),
            &sf,
            AccessLink::StableWifi,
        )
        .unwrap();
    let mut rtmp_viewer = RtmpViewer::new(UserId(2));
    let pop = datacenters::nearest(Provider::Fastly, &sf).id;
    let mut hls_viewer = HlsViewer::new(UserId(3), grant.id, pop, &sf, AccessLink::StableWifi);

    // 4. Stream 30 seconds of 40 ms frames over a realistic uplink.
    let mut source = FrameSource::new(0);
    let captures = capture_schedule(SimTime::ZERO, 750);
    let uplink = UplinkModel::for_class(UplinkClass::Steady);
    let arrivals = uplink.arrival_times(&captures, 2_500, &mut rng);
    let mut next_poll = SimTime::ZERO;
    for (i, &arrival) in arrivals.iter().enumerate() {
        let frame = source.next_frame();
        let wire = RtmpMessage::encode_frame(&frame);
        let outcome = cluster.ingest_frame(arrival, grant.id, wire).unwrap();
        for delivery in outcome.deliveries {
            if let Some(delay) = delivery.delay {
                rtmp_viewer.record_push(&frame.meta, captures[i], arrival, delay);
            }
        }
        // The HLS viewer polls its POP every 2.8 s in between frames.
        while next_poll <= arrival {
            hls_viewer.poll(&mut cluster, next_poll, &mut rng);
            next_poll += SimDuration::from_millis(2_800);
        }
    }
    // Drain the tail so the last chunks land.
    for k in 0..8 {
        let t = SimTime::from_secs(30) + SimDuration::from_millis(k * 2_800);
        hls_viewer.poll(&mut cluster, t, &mut rng);
    }

    // 5. Replay both arrival traces through the decompiled client buffer.
    let rtmp_report = simulate_playback(rtmp_viewer.units(), SimDuration::from_secs(1));
    let hls_units = hls_viewer.units();
    let hls_report = simulate_playback(&hls_units, SimDuration::from_secs(9));
    let (upload, last_mile) = rtmp_viewer.mean_delays();

    println!("\nRTMP viewer: {} frames", rtmp_viewer.units().len());
    println!(
        "  upload {upload:.3}s + last-mile {last_mile:.3}s + buffering {:.2}s",
        rtmp_report.avg_buffering_s
    );
    println!(
        "  stalls: {:.2}% of the stream",
        rtmp_report.stall_ratio * 100.0
    );
    println!(
        "\nHLS viewer: {} chunks via the {} POP",
        hls_units.len(),
        datacenters::datacenter(pop).city
    );
    println!(
        "  buffering {:.2}s (9s pre-buffer), stalls {:.2}%",
        hls_report.avg_buffering_s,
        hls_report.stall_ratio * 100.0
    );
    println!(
        "\nThe paper's Fig 11 story in one run: chunking + polling + deep\n\
         client buffers put the HLS audience ~10s behind the RTMP audience."
    );
}
