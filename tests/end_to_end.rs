//! End-to-end integration: the full broadcast lifecycle across control
//! plane, ingest, edge, message bus and clients.

use livescope_cdn::ids::UserId;
use livescope_client::viewer::HlsViewer;
use livescope_net::datacenters::{self, DatacenterId, Provider};
use livescope_net::AccessLink;
use livescope_proto::message::{ChatEvent, EventKind};
use livescope_sim::{SimDuration, SimTime};
use livescope_tests::{after_frames, live_broadcast, stream_frames, test_cluster, ucsb};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn hundredth_viewer_gets_rtmp_and_the_next_is_handed_to_hls() {
    let mut cluster = test_cluster(1);
    let grant = live_broadcast(&mut cluster, UserId(1));
    for v in 0..100 {
        let g = cluster
            .join_viewer(SimTime::ZERO, grant.id, UserId(1000 + v), &ucsb())
            .unwrap();
        assert!(g.rtmp.is_some(), "viewer {v} should get RTMP");
        assert!(g.can_comment);
    }
    let g101 = cluster
        .join_viewer(SimTime::ZERO, grant.id, UserId(2000), &ucsb())
        .unwrap();
    assert!(g101.rtmp.is_none(), "101st viewer goes to HLS");
    assert!(!g101.can_comment, "comment rights end with the RTMP slots");
    let state = cluster.control.broadcast(grant.id).unwrap();
    assert_eq!(state.rtmp_viewers, 100);
    assert_eq!(state.hls_viewers, 1);
}

#[test]
fn frames_pushed_to_rtmp_subscribers_arrive_in_order_with_positive_delay() {
    let mut cluster = test_cluster(2);
    let grant = live_broadcast(&mut cluster, UserId(1));
    cluster
        .join_viewer(SimTime::ZERO, grant.id, UserId(5), &ucsb())
        .unwrap();
    cluster
        .subscribe_rtmp(
            SimTime::ZERO,
            grant.id,
            UserId(5),
            &ucsb(),
            AccessLink::StableWifi,
        )
        .unwrap();
    let mut last_seq = None;
    for i in 0..200u64 {
        let now = SimTime::from_millis(i * 40);
        let outcome = cluster
            .ingest_decoded(now, grant.id, livescope_tests::test_frame(i))
            .unwrap();
        assert_eq!(outcome.deliveries.len(), 1);
        let d = &outcome.deliveries[0];
        assert!(d.delay.expect("clean link delivers") > SimDuration::ZERO);
        let frame = match livescope_proto::rtmp::RtmpMessage::decode(d.wire.clone()).unwrap() {
            livescope_proto::rtmp::RtmpMessage::Frame(f) => f,
            other => panic!("{other:?}"),
        };
        assert_eq!(Some(frame.meta.sequence), Some(i));
        if let Some(prev) = last_seq {
            assert_eq!(frame.meta.sequence, prev + 1);
        }
        last_seq = Some(frame.meta.sequence);
    }
}

#[test]
fn hls_chunks_flow_origin_to_pop_to_viewer_and_play_smoothly() {
    let mut cluster = test_cluster(3);
    let mut rng = SmallRng::seed_from_u64(3);
    let grant = live_broadcast(&mut cluster, UserId(1));
    let pop = datacenters::nearest(Provider::Fastly, &ucsb()).id;
    let mut viewer = HlsViewer::new(UserId(9), grant.id, pop, &ucsb(), AccessLink::StableWifi);
    // Watch live: interleave 30 s of ingest with 2.8 s polls, plus a tail
    // so the final chunk lands (late joiners only see the 6-chunk live
    // window, so polling must track the stream).
    let mut next_poll = SimTime::ZERO;
    let mut chunks = 0;
    for i in 0..750u64 {
        let now = SimTime::from_millis(i * 40);
        while next_poll <= now {
            viewer.poll(&mut cluster, next_poll, &mut rng);
            next_poll += SimDuration::from_millis(2_800);
        }
        chunks += cluster
            .ingest_decoded(now, grant.id, livescope_tests::test_frame(i))
            .unwrap()
            .completed_chunk
            .is_some() as usize;
    }
    assert_eq!(chunks, 9);
    for k in 0..4u64 {
        let now = after_frames(750) + SimDuration::from_millis(k * 2_800);
        viewer.poll(&mut cluster, now, &mut rng);
    }
    assert_eq!(viewer.receipts().len(), 9, "all chunks reach the viewer");
    let units = viewer.units();
    let report = livescope_client::playback::simulate_playback(&units, SimDuration::from_secs(9));
    assert_eq!(report.played + report.discarded, 9);
    assert_eq!(report.discarded, 0);
}

#[test]
fn ending_a_broadcast_tears_everything_down() {
    let mut cluster = test_cluster(4);
    let grant = live_broadcast(&mut cluster, UserId(1));
    stream_frames(&mut cluster, &grant, 100);
    let pop = DatacenterId(8);
    cluster.poll_hls(after_frames(100), grant.id, pop).unwrap();
    cluster
        .end_broadcast(after_frames(101), grant.id, &grant.token)
        .unwrap();
    assert_eq!(cluster.control.live_count(), 0);
    // Joins are refused, the edge cache is gone.
    assert!(cluster
        .join_viewer(after_frames(102), grant.id, UserId(7), &ucsb())
        .is_err());
    assert!(cluster.fastly[0].availability(grant.id, 0).is_none());
    // Ingest is refused after teardown.
    assert!(cluster
        .ingest_decoded(
            after_frames(102),
            grant.id,
            livescope_tests::test_frame(101)
        )
        .is_err());
}

#[test]
fn hearts_fan_out_to_all_channel_subscribers() {
    let mut cluster = test_cluster(5);
    let grant = live_broadcast(&mut cluster, UserId(1));
    for v in 0..25u64 {
        let link = livescope_net::Link::device_path(
            &ucsb(),
            &datacenters::datacenter(grant.wowza_dc).location,
            AccessLink::StableWifi,
        );
        cluster.pubnub.subscribe(grant.id, UserId(100 + v), link);
    }
    let deliveries = cluster.publish_chat(
        SimTime::from_secs(5),
        ChatEvent {
            broadcast_id: grant.id.0,
            user_id: 101,
            ts_us: 5_000_000,
            kind: EventKind::Heart,
        },
    );
    assert_eq!(deliveries.len(), 25);
    assert!(deliveries.iter().filter(|d| d.delay.is_some()).count() >= 24);
}

#[test]
fn two_identically_seeded_clusters_evolve_identically() {
    let run = |seed| {
        let mut cluster = test_cluster(seed);
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
        let mut delays = Vec::new();
        for i in 0..100u64 {
            let outcome = cluster
                .ingest_decoded(
                    SimTime::from_millis(i * 40),
                    grant.id,
                    livescope_tests::test_frame(i),
                )
                .unwrap();
            delays.push(outcome.deliveries[0].delay);
        }
        (grant.token.clone(), delays)
    };
    let (tok_a, delays_a) = run(77);
    let (tok_b, delays_b) = run(77);
    let (tok_c, delays_c) = run(78);
    assert_eq!(tok_a, tok_b);
    assert_eq!(delays_a, delays_b);
    assert!(tok_a != tok_c || delays_a != delays_c);
}

#[test]
fn broadcasters_land_on_their_nearest_wowza_site() {
    let mut cluster = test_cluster(6);
    for (city, lat, lon, expected) in [
        ("SF", 37.77, -122.42, "San Jose"),
        ("NYC", 40.71, -74.01, "Ashburn"),
        ("Berlin", 52.52, 13.40, "Frankfurt"),
        ("Osaka", 34.69, 135.50, "Tokyo"),
        ("Rio", -22.91, -43.17, "Sao Paulo"),
    ] {
        let grant = cluster.create_broadcast(
            SimTime::ZERO,
            UserId(1),
            &livescope_net::geo::GeoPoint::new(lat, lon),
        );
        assert_eq!(
            datacenters::datacenter(grant.wowza_dc).city,
            expected,
            "{city} broadcaster"
        );
    }
}
