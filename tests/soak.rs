//! Soak test: drive the full delivery system with a workload-generator
//! day — hundreds of broadcasts, thousands of joins, live ingest and
//! polling — and check global invariants at the end. This is the "would a
//! downstream user's service survive a day of traffic" test.

#![forbid(unsafe_code)]

use livescope_cdn::ids::{BroadcastId, UserId};
use livescope_cdn::Cluster;
use livescope_net::geo::GeoPoint;
use livescope_sim::process::{Tick, Ticker};
use livescope_sim::{RngPool, Scheduler, SimDuration, SimTime};
use livescope_workload::{generate_streaming, BroadcastRecord, ScenarioConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

struct SoakWorld {
    cluster: Cluster,
    rng: SmallRng,
    frames_ingested: u64,
    chunks_completed: u64,
    polls: u64,
    joins: u64,
    live_tokens: std::collections::HashMap<BroadcastId, String>,
}

#[test]
fn a_day_of_workload_runs_clean_through_the_cluster() {
    // 1. Ground truth from the workload generator: one scaled day.
    let scenario = ScenarioConfig {
        days: 1,
        users: 800,
        base_daily_broadcasts: 120.0,
        ..ScenarioConfig::periscope_study()
    };
    let broadcasts: Vec<BroadcastRecord> = generate_streaming(&scenario).collect();
    assert!(
        broadcasts.len() >= 60,
        "day too quiet: {}",
        broadcasts.len()
    );

    // 2. Replay it against the real cluster inside the event scheduler.
    //    Each broadcast: create → connect → ingest at 1 frame/s (reduced
    //    rate to keep the soak fast; mechanisms are rate-independent) →
    //    a few HLS polls → end.
    let pool = RngPool::new(0x50AC);
    let mut sched: Scheduler<SoakWorld> = Scheduler::new();
    let mut world = SoakWorld {
        cluster: Cluster::new(&pool, SimDuration::from_secs(3), 100),
        rng: SmallRng::seed_from_u64(pool.stream_seed("drive")),
        frames_ingested: 0,
        chunks_completed: 0,
        polls: 0,
        joins: 0,
        live_tokens: std::collections::HashMap::new(),
    };

    for record in broadcasts.iter().take(150) {
        let start = record.start;
        let duration = record.duration.min(SimDuration::from_secs(120));
        let broadcaster = UserId(record.broadcaster as u64 + 1_000_000);
        let audience = record.viewers.min(25);
        sched.schedule_at(start, move |sched, world: &mut SoakWorld| {
            let location = GeoPoint::new(
                world.rng.gen_range(-50.0..60.0),
                world.rng.gen_range(-120.0..140.0),
            );
            let grant = world
                .cluster
                .create_broadcast(sched.now(), broadcaster, &location);
            world
                .cluster
                .connect_publisher(sched.now(), grant.id, &grant.token)
                .expect("fresh broadcast");
            world.live_tokens.insert(grant.id, grant.token.clone());
            let id = grant.id;
            // Viewers join over the first seconds.
            for v in 0..audience {
                let delay = SimDuration::from_millis(world.rng.gen_range(0..5_000));
                sched.schedule_in(delay, move |sched, world: &mut SoakWorld| {
                    let loc = GeoPoint::new(
                        world.rng.gen_range(-50.0..60.0),
                        world.rng.gen_range(-120.0..140.0),
                    );
                    if world
                        .cluster
                        .join_viewer(sched.now(), id, UserId(v + 2_000_000), &loc)
                        .is_ok()
                    {
                        world.joins += 1;
                        let _ = sched;
                    }
                });
            }
            // Ingest ticker: one frame per second until the end.
            let frames = duration.as_secs_f64() as u64;
            let mut i = 0u64;
            Ticker::spawn(
                sched,
                sched.now(),
                SimDuration::from_secs(1),
                move |sched, world: &mut SoakWorld| {
                    if i >= frames || !world.live_tokens.contains_key(&id) {
                        return Tick::Stop;
                    }
                    let frame = livescope_proto::rtmp::VideoFrame::new(
                        i,
                        i * 1_000_000,
                        i.is_multiple_of(3),
                        bytes::Bytes::from(vec![3u8; 1_200]),
                    );
                    let outcome = world
                        .cluster
                        .ingest_decoded(sched.now(), id, frame)
                        .expect("live session ingests");
                    world.frames_ingested += 1;
                    world.chunks_completed += outcome.completed_chunk.is_some() as u64;
                    i += 1;
                    Tick::Again
                },
            );
            // One HLS poller per broadcast.
            Ticker::spawn(
                sched,
                sched.now() + SimDuration::from_secs(4),
                SimDuration::from_millis(2_800),
                move |sched, world: &mut SoakWorld| {
                    if !world.live_tokens.contains_key(&id) {
                        return Tick::Stop;
                    }
                    let pop =
                        livescope_net::datacenters::DatacenterId(8 + (world.polls % 23) as u16);
                    if world.cluster.poll_hls(sched.now(), id, pop).is_ok() {
                        world.polls += 1;
                    }
                    Tick::Again
                },
            );
            // Schedule the end.
            sched.schedule_in(duration, move |sched, world: &mut SoakWorld| {
                if let Some(token) = world.live_tokens.remove(&id) {
                    world
                        .cluster
                        .end_broadcast(sched.now(), id, &token)
                        .expect("live broadcast ends once");
                }
            });
        });
    }

    let horizon = SimTime::from_secs(90_000);
    sched.run_until(horizon, &mut world);

    // 3. Invariants.
    assert_eq!(
        world.cluster.control.live_count(),
        0,
        "every broadcast must have ended"
    );
    assert!(
        world.frames_ingested > 3_000,
        "ingested {}",
        world.frames_ingested
    );
    assert!(
        world.chunks_completed > 500,
        "chunks {}",
        world.chunks_completed
    );
    assert!(world.polls > 500, "polls {}", world.polls);
    assert!(world.joins > 200, "joins {}", world.joins);
    // Work accounting is consistent across the ingest fleet.
    let total_frames: u64 = world.cluster.wowza.iter().map(|w| w.work.frames_in).sum();
    assert_eq!(total_frames, world.frames_ingested);
    let total_chunks: u64 = world
        .cluster
        .wowza
        .iter()
        .map(|w| w.work.chunks_built)
        .sum();
    assert!(
        total_chunks >= world.chunks_completed,
        "flushes may add chunks"
    );
    // The scheduler drained everything we scheduled.
    assert_eq!(sched.pending(), 0, "events left in the queue");
}
