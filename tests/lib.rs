//! Shared helpers for the cross-crate integration tests.

use livescope_cdn::control::CreateGrant;
use livescope_cdn::ids::UserId;
use livescope_cdn::Cluster;
use livescope_net::geo::GeoPoint;
use livescope_proto::rtmp::VideoFrame;
use livescope_sim::{RngPool, SimDuration, SimTime};

/// UCSB, where the paper's controlled experiments ran.
pub fn ucsb() -> GeoPoint {
    GeoPoint::new(34.41, -119.85)
}

/// A standard 3-second-chunk cluster with the production 100-slot cap.
pub fn test_cluster(seed: u64) -> Cluster {
    Cluster::new(&RngPool::new(seed), SimDuration::from_secs(3), 100)
}

/// Creates a broadcast at UCSB and connects its publisher.
pub fn live_broadcast(cluster: &mut Cluster, broadcaster: UserId) -> CreateGrant {
    let grant = cluster.create_broadcast(SimTime::ZERO, broadcaster, &ucsb());
    cluster
        .connect_publisher(SimTime::ZERO, grant.id, &grant.token)
        .expect("fresh broadcast accepts its publisher");
    grant
}

/// A deterministic test frame: 40 ms cadence, keyframe every 50th.
pub fn test_frame(seq: u64) -> VideoFrame {
    VideoFrame::new(
        seq,
        seq * 40_000,
        seq.is_multiple_of(50),
        bytes::Bytes::from(vec![1 + (seq % 250) as u8; 2_500]),
    )
}

/// Feeds `n` frames into a broadcast at real-time cadence; returns the
/// number of completed chunks.
pub fn stream_frames(cluster: &mut Cluster, grant: &CreateGrant, n: u64) -> usize {
    let mut chunks = 0;
    for i in 0..n {
        let now = SimTime::from_millis(i * 40);
        let outcome = cluster
            .ingest_decoded(now, grant.id, test_frame(i))
            .expect("publisher session live");
        chunks += outcome.completed_chunk.is_some() as usize;
    }
    chunks
}

/// The instant just after the `n`-th frame.
pub fn after_frames(n: u64) -> SimTime {
    SimTime::from_millis(n * 40) + SimDuration::from_millis(1)
}
