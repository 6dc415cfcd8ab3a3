//! Failure injection across the stack (smoltcp-style): lossy and
//! corrupting links, rate limiting, and adverse conditions must degrade
//! results gracefully — never panic, never wedge, always keep the
//! accounting consistent.

use livescope_cdn::ids::UserId;
use livescope_client::playback::{simulate_playback, ArrivedUnit};
use livescope_net::geo::GeoPoint;
use livescope_net::{AccessLink, Delivery, FaultConfig, Link};
use livescope_proto::rtmp::RtmpMessage;
use livescope_sim::{SimDuration, SimTime};
use livescope_tests::{live_broadcast, test_cluster, test_frame, ucsb};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn lossy_link(drop: f64, corrupt: f64) -> Link {
    Link::device_path(
        &ucsb(),
        &GeoPoint::new(37.34, -121.89),
        AccessLink::StableWifi,
    )
    .with_faults(FaultConfig {
        drop_chance: drop,
        corrupt_chance: corrupt,
        ..FaultConfig::none()
    })
}

#[test]
fn playback_over_a_lossy_link_degrades_but_stays_consistent() {
    let mut rng = SmallRng::seed_from_u64(1);
    let mut link = lossy_link(0.15, 0.0);
    // 60 s of frames; ~15% never arrive.
    let mut units = Vec::new();
    for i in 0..1_500u64 {
        let sent = SimTime::from_millis(i * 40);
        if let Delivery::Arrives { delay, .. } = link.transmit(&mut rng, sent, 2_500) {
            units.push(ArrivedUnit {
                media_ts_us: i * 40_000,
                duration_us: 40_000,
                arrival: sent + delay,
            });
        }
    }
    let received = units.len() as f64 / 1_500.0;
    assert!((0.8..0.9).contains(&received), "delivery rate {received}");
    let report = simulate_playback(&units, SimDuration::from_secs(1));
    assert_eq!(report.played + report.discarded, units.len() as u64);
    // Lost units show as media discontinuities, not stalls, so the stream
    // still plays through.
    assert!(
        report.stall_ratio < 0.2,
        "stall ratio {}",
        report.stall_ratio
    );
}

#[test]
fn corrupted_frames_are_rejected_by_decode_not_by_panicking() {
    let mut rng = SmallRng::seed_from_u64(2);
    let mut link = lossy_link(0.0, 1.0);
    let wire = RtmpMessage::Frame(test_frame(1)).encode();
    let mut decoded_ok = 0;
    let mut rejected = 0;
    for i in 0..200u64 {
        match link.transmit(&mut rng, SimTime::from_millis(i), wire.len()) {
            Delivery::Arrives {
                corrupt_offset: Some(at),
                ..
            } => {
                let mut bytes = wire.to_vec();
                livescope_net::FaultInjector::apply_corruption(&mut bytes, at);
                match RtmpMessage::decode(bytes::Bytes::from(bytes)) {
                    Ok(_) => decoded_ok += 1, // payload-byte flip: undetectable without signatures
                    Err(_) => rejected += 1,
                }
            }
            Delivery::Arrives {
                corrupt_offset: None,
                ..
            } => decoded_ok += 1,
            Delivery::Lost => {}
        }
    }
    assert_eq!(decoded_ok + rejected, 200);
    assert!(
        rejected > 0,
        "header corruption must be caught by the codec"
    );
    assert!(
        decoded_ok > 0,
        "payload corruption passes the codec — which is why §7.2 needs signatures"
    );
}

#[test]
fn rate_limited_uplink_stalls_ingest_but_accounting_matches() {
    let mut cluster = test_cluster(20);
    let grant = live_broadcast(&mut cluster, UserId(1));
    cluster
        .join_viewer(SimTime::ZERO, grant.id, UserId(2), &ucsb())
        .unwrap();
    cluster
        .subscribe_rtmp(
            SimTime::ZERO,
            grant.id,
            UserId(2),
            &ucsb(),
            AccessLink::StableWifi,
        )
        .unwrap();
    // The viewer's link is shaped to 4 frames per 50 ms bucket.
    // (Installed by replacing the subscription with a shaped link.)
    cluster.wowza[grant.wowza_dc.0 as usize].unsubscribe(grant.id, UserId(2));
    cluster.wowza[grant.wowza_dc.0 as usize]
        .subscribe(
            grant.id,
            UserId(2),
            lossy_link(0.0, 0.0).with_faults(FaultConfig {
                rate_limit: Some(2),
                shaping_interval: SimDuration::from_millis(200),
                ..FaultConfig::none()
            }),
        )
        .unwrap();
    let mut delivered = 0;
    let mut dropped = 0;
    for i in 0..250u64 {
        let outcome = cluster
            .ingest_decoded(SimTime::from_millis(i * 40), grant.id, test_frame(i))
            .unwrap();
        match outcome.deliveries[0].delay {
            Some(_) => delivered += 1,
            None => dropped += 1,
        }
    }
    assert_eq!(delivered + dropped, 250);
    // 2 frames per 200 ms over 10 s ⇒ ~100 deliveries of 250 sent.
    assert!(
        (80..130).contains(&delivered),
        "rate limiter delivered {delivered}"
    );
}

#[test]
fn adverse_conditions_dont_break_the_hls_path() {
    // The smoltcp "good starting value": 15% drop + 15% corrupt on the
    // viewer's last mile. Chunk fetches retry (modelled as slow arrivals),
    // so the viewer still makes progress.
    let mut cluster = test_cluster(21);
    let mut rng = SmallRng::seed_from_u64(21);
    let grant = live_broadcast(&mut cluster, UserId(1));
    livescope_tests::stream_frames(&mut cluster, &grant, 750);
    let pop =
        livescope_net::datacenters::nearest(livescope_net::datacenters::Provider::Fastly, &ucsb())
            .id;
    let mut viewer = livescope_client::viewer::HlsViewer::new(
        UserId(9),
        grant.id,
        pop,
        &ucsb(),
        AccessLink::CongestedWifi,
    );
    for k in 0..25u64 {
        let now = livescope_tests::after_frames(750) + SimDuration::from_millis(k * 2_800);
        viewer.poll(&mut cluster, now, &mut rng);
    }
    // A post-stream joiner sees the 6-chunk live window; adverse network
    // conditions must not lose any of those.
    assert_eq!(
        viewer.receipts().len(),
        livescope_cdn::fastly::LIVE_WINDOW,
        "every advertised chunk eventually arrives"
    );
    let report = simulate_playback(&viewer.units(), SimDuration::from_secs(9));
    assert!(report.played > 0);
}

#[test]
fn fault_stats_add_up() {
    let mut rng = SmallRng::seed_from_u64(3);
    let mut link = lossy_link(0.3, 0.3);
    let n = 5_000;
    for i in 0..n {
        link.transmit(&mut rng, SimTime::from_millis(i), 100);
    }
    let (passed, dropped, corrupted, rate_limited) = link.fault_stats();
    assert_eq!(passed + dropped + corrupted + rate_limited, n);
    assert!(dropped > 0 && corrupted > 0);
}
