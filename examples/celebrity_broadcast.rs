//! Celebrity broadcast: the scenario from the paper's introduction — a
//! heavily-followed account goes live, thousands pile in, the first 100
//! get RTMP + comment rights, everyone else is handed to the HLS CDN, and
//! hearts keep flowing from everyone.
//!
//! Shows the interactivity consequence the paper leads with: the HLS
//! audience reacts ~10 s late, so their hearts land on the wrong moment.
//!
//! ```sh
//! cargo run -p livescope-examples --release --bin celebrity_broadcast
//! # per-POP delivery on 6 worker lanes (same output as any other lane count):
//! cargo run -p livescope-examples --release --bin celebrity_broadcast -- --lanes 6
//! ```

#![forbid(unsafe_code)]

use livescope_cdn::control::ControlError;
use livescope_cdn::ids::UserId;
use livescope_cdn::{run_fanout, Cluster, FanoutConfig};
use livescope_net::datacenters;
use livescope_net::geo::GeoPoint;
use livescope_proto::message::{ChatEvent, EventKind, COMMENTER_CAP};
use livescope_sim::{RngPool, SimDuration, SimTime};
use livescope_telemetry::Telemetry;

/// Parses `--lanes N` (default 1).
fn parse_cli() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let mut lanes = 1usize;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--lanes" if i + 1 < args.len() => {
                lanes = args[i + 1].parse().expect("--lanes takes a number");
                i += 2;
            }
            other => {
                eprintln!("usage: celebrity_broadcast [--lanes N]");
                panic!("unknown argument {other:?}");
            }
        }
    }
    lanes.max(1)
}

fn main() {
    let lanes = parse_cli();
    let pool = RngPool::new(7);
    let mut cluster = Cluster::new(&pool, SimDuration::from_secs(3), COMMENTER_CAP as u64);

    // The celebrity broadcasts from Los Angeles.
    let la = GeoPoint::new(34.05, -118.24);
    let grant = cluster.create_broadcast(SimTime::ZERO, UserId(1), &la);
    cluster
        .connect_publisher(SimTime::ZERO, grant.id, &grant.token)
        .unwrap();

    // 2 500 fans join from around the world in arrival order.
    let cities = [
        ("Los Angeles", 34.05, -118.24),
        ("New York", 40.71, -74.01),
        ("London", 51.51, -0.13),
        ("Tokyo", 35.68, 139.65),
        ("Sydney", -33.87, 151.21),
        ("Rio", -22.91, -43.17),
    ];
    let mut rtmp = 0u64;
    let mut hls_by_pop = std::collections::BTreeMap::<u16, u64>::new();
    let mut commenters = Vec::new();
    for v in 0..2_500u64 {
        let (_, lat, lon) = cities[v as usize % cities.len()];
        let viewer = UserId(100 + v);
        let grant_v = cluster
            .join_viewer(SimTime::ZERO, grant.id, viewer, &GeoPoint::new(lat, lon))
            .expect("live broadcast admits viewers");
        if grant_v.rtmp.is_some() {
            rtmp += 1;
            commenters.push(viewer);
        } else {
            *hls_by_pop.entry(grant_v.hls_url.dc).or_default() += 1;
        }
    }
    println!(
        "audience: {rtmp} on RTMP (can comment), {} on HLS",
        2_500 - rtmp
    );
    println!("HLS viewers by anycast POP:");
    for (&dc, count) in &hls_by_pop {
        let city = datacenters::datacenter(livescope_net::datacenters::DatacenterId(dc)).city;
        println!("  {city:<12} {count}");
    }

    // Comments: only the RTMP cohort may post; an HLS viewer is refused.
    for &c in commenters.iter().take(5) {
        cluster.control.record_comment(grant.id, c).unwrap();
    }
    let late_viewer = UserId(100 + 2_400);
    assert_eq!(
        cluster.control.record_comment(grant.id, late_viewer),
        Err(ControlError::NotACommenter)
    );
    println!(
        "\ncomment cap: viewer #2401 was refused (paper: only the first ~{COMMENTER_CAP} may comment)"
    );

    // Everyone interested in reactions subscribes to the broadcast's
    // message channel (here: the broadcaster plus the comment cohort).
    for &c in commenters.iter().chain([&UserId(1)]) {
        let link = livescope_net::Link::device_path(
            &la,
            &datacenters::datacenter(grant.wowza_dc).location,
            livescope_net::AccessLink::StableWifi,
        );
        cluster.pubnub.subscribe(grant.id, c, link);
    }

    // Hearts flow from everyone — but arrive aligned to each cohort's
    // playback position. An RTMP fan reacts ~1.4 s after the moment; an
    // HLS fan ~11.7 s after. At a real moment t=30 s:
    let rtmp_lag = 1.4f64;
    let hls_lag = 11.7f64;
    let moment = 30.0;
    for (who, lag) in [("RTMP fan", rtmp_lag), ("HLS fan", hls_lag)] {
        let heart = ChatEvent {
            broadcast_id: grant.id.0,
            user_id: 0,
            ts_us: ((moment + lag) * 1e6) as u64,
            kind: EventKind::Heart,
        };
        let deliveries = cluster.publish_chat(SimTime::from_secs_f64(moment + lag), heart);
        println!(
            "{who}: sees the t={moment:.0}s moment at t={:.1}s; heart reaches {} subscribers",
            moment + lag,
            deliveries.len()
        );
    }
    println!(
        "\nThe broadcaster polls the audience at t=30s and closes voting 10s later:\n\
         every HLS vote arrives after the poll already closed — the paper's\n\
         interactivity-vs-scalability tension in action."
    );

    // The HLS delivery itself: every anycast POP the audience landed on
    // becomes one scheduler shard, and viewers roaming between POPs travel
    // through the inter-lane mailboxes. The per-seed output below is
    // byte-identical for any `--lanes` value.
    let config = FanoutConfig {
        pops: hls_by_pop
            .keys()
            .map(|&dc| livescope_net::datacenters::DatacenterId(dc))
            .collect(),
        viewers_per_pop: 100,
        stream_secs: 60,
        roam_every: 5,
        seed: 7,
        ..FanoutConfig::default()
    };
    let report = run_fanout(&config, lanes, &Telemetry::disabled());
    println!(
        "\nHLS delivery, {} POPs as scheduler shards (sharded(lanes={lanes})):",
        config.pops.len()
    );
    print!("{}", report.render());
}
