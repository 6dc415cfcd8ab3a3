//! Sharded per-POP HLS fan-out: the celebrity-broadcast delivery phase.
//!
//! The paper's introduction scenario — a heavily-followed account goes
//! live and thousands of HLS viewers pile onto edge POPs around the world
//! — is the workload that motivates the multi-lane sharded scheduler:
//! each Fastly POP is an independent shard (its cache, work counters, and
//! viewer poll chains touch no other POP's state), while viewers that
//! *roam* between POPs (anycast re-routing mid-stream, §5.3) cross shards
//! through the scheduler's mailboxes.
//!
//! Determinism contract: the run is a pure function of
//! [`FanoutConfig::seed`]. Each viewer carries its own RNG stream
//! (`fork_indexed("fanout.viewer", id)`), so its poll jitter is identical
//! no matter which shard it currently lives on; trace events go through
//! [`EventCtx::emit`], so the merged trace is byte-identical for any lane
//! count. `tests/sharded_determinism.rs` in `livescope-core` asserts both.
//!
//! [`EventCtx::emit`]: livescope_sim::EventCtx::emit

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::Rng;

use livescope_net::datacenters::{self, DatacenterId, Provider};
use livescope_proto::rtmp::VideoFrame;
use livescope_sim::rng::splitmix64;
use livescope_sim::{
    BackendEvent, RngPool, SchedulerBackend, ShardId, ShardedScheduler, SimDuration, SimTime,
};
use livescope_telemetry::{Span, Telemetry, TraceEvent};

use crate::chunker::{Chunker, ReadyChunk};
use crate::fastly::{FastlyPop, FetchPlan};
use crate::ids::BroadcastId;

/// Parameters for a per-POP fan-out run.
#[derive(Clone, Debug)]
pub struct FanoutConfig {
    /// Edge POPs, one scheduler shard each.
    pub pops: Vec<DatacenterId>,
    /// HLS viewers initially assigned to each POP.
    pub viewers_per_pop: usize,
    /// Stream length, seconds.
    pub stream_secs: u64,
    /// Chunk duration, seconds.
    pub chunk_secs: f64,
    /// Viewer chunklist poll interval, seconds.
    pub poll_interval_s: f64,
    /// After this many polls a viewer roams to the next POP (ring order).
    /// `0` disables roaming, making the shards fully independent.
    pub roam_every: u32,
    /// Root seed; the run is a pure function of it.
    pub seed: u64,
}

impl Default for FanoutConfig {
    fn default() -> Self {
        FanoutConfig {
            // Six POPs, like the six cities of the celebrity example.
            pops: datacenters::by_provider(Provider::Fastly)
                .take(6)
                .map(|d| d.id)
                .collect(),
            viewers_per_pop: 50,
            stream_secs: 60,
            chunk_secs: 3.0,
            poll_interval_s: 2.8,
            roam_every: 5,
            seed: 0xFA40,
        }
    }
}

/// One POP's shard state: the edge server plus fan-out bookkeeping.
pub struct PopShard {
    /// The edge POP owned by this shard.
    pub pop: FastlyPop,
    origin: Arc<Vec<ReadyChunk>>,
    broadcast: BroadcastId,
    end: SimTime,
    poll_interval: SimDuration,
    roam_every: u32,
    shard_count: u16,
    viewers_done: u64,
    roams_out: u64,
    checksum: u64,
}

/// A viewer's poll-chain state; travels inside the event closure, so a
/// roaming viewer carries its RNG stream and download position with it.
struct Viewer {
    id: u64,
    have: Option<u64>,
    polls: u32,
    rng: SmallRng,
}

/// Per-POP results of a fan-out run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PopStats {
    /// Which POP.
    pub dc: DatacenterId,
    /// Chunklist polls served.
    pub polls_served: u64,
    /// Origin fetches initiated (one per chunk, whatever the audience).
    pub origin_fetches: u64,
    /// Chunklists built; every other poll shared the cached copy.
    pub playlist_rebuilds: u64,
    /// Chunk downloads served.
    pub chunks_served: u64,
    /// Bytes moved to viewers.
    pub bytes_served: u64,
    /// Viewers whose poll chain ended on this POP.
    pub viewers_done: u64,
    /// Viewers this POP handed to the next POP.
    pub roams_out: u64,
    /// Order-insensitive digest of `(viewer, seq, time)` deliveries.
    pub checksum: u64,
}

/// The fan-out sweep result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FanoutReport {
    /// One entry per POP, in shard order.
    pub per_pop: Vec<PopStats>,
    /// Scheduler events executed across all shards.
    pub events_fired: u64,
    /// Digest over all deliveries (wrapping sum of per-POP checksums).
    pub checksum: u64,
}

impl FanoutReport {
    /// Total chunk downloads across POPs.
    pub fn chunks_served(&self) -> u64 {
        self.per_pop.iter().map(|p| p.chunks_served).sum()
    }

    /// Renders the per-POP table.
    pub fn render(&self) -> String {
        let mut out = String::from("per-POP fan-out (chunk deliveries over the stream)\n");
        for p in &self.per_pop {
            out.push_str(&format!(
                "  {:<12} polls {:>6}  chunks {:>6}  MB {:>7.1}  done {:>4}  roamed-out {:>4}\n",
                datacenters::datacenter(p.dc).city,
                p.polls_served,
                p.chunks_served,
                p.bytes_served as f64 / 1e6,
                p.viewers_done,
                p.roams_out,
            ));
        }
        out.push_str(&format!(
            "  total: {} chunk serves, {} events, checksum {:#018x}\n",
            self.chunks_served(),
            self.events_fired,
            self.checksum
        ));
        out
    }
}

/// Frame `seq` of the stream: a 2.5 KB delta frame or, every 50th, a 9 KB
/// keyframe, whose payload is a clone of the matching shared `filler`.
fn fan_frame(seq: u64, filler: &[bytes::Bytes; 2]) -> VideoFrame {
    let keyframe = seq.is_multiple_of(50);
    VideoFrame::new(
        seq,
        seq * 40_000,
        keyframe,
        filler[usize::from(keyframe)].clone(),
    )
}

/// Assembles the broadcast's origin chunk store by running the stream's
/// frames through a real chunker (shared read-only by every POP shard).
/// Every frame of a kind shares one payload block.
pub fn build_origin(stream_secs: u64, chunk_secs: f64) -> Vec<ReadyChunk> {
    let filler = [2_500, 9_000].map(|size| std::iter::repeat_n(7u8, size).collect());
    let mut chunker = Chunker::new(SimDuration::from_secs_f64(chunk_secs));
    let mut origin = Vec::new();
    for i in 0..stream_secs * 25 {
        let now = SimTime::from_millis(i * 40);
        if let Some(ready) = chunker.push(now, fan_frame(i, &filler)) {
            origin.push(ready);
        }
    }
    if let Some(ready) = chunker.flush(SimTime::from_secs(stream_secs)) {
        origin.push(ready);
    }
    origin
}

/// One step of a viewer's poll chain, packaged as a scheduler event.
fn poll_event(mut viewer: Viewer) -> BackendEvent<PopShard> {
    Box::new(move |ctx, shard: &mut PopShard| {
        let now = ctx.now();
        if now > shard.end {
            shard.viewers_done += 1;
            shard.checksum = shard.checksum.wrapping_add(splitmix64(
                viewer.id ^ viewer.have.unwrap_or(u64::MAX).wrapping_mul(0x9E37_79B9),
            ));
            return;
        }
        let fetch =
            |plan: &FetchPlan| SimDuration::from_millis(30 + (plan.total_bytes / 500_000) as u64);
        let resp = shard.pop.poll(now, shard.broadcast, &shard.origin, fetch);
        let pop_dc = shard.pop.datacenter();
        let tracing = ctx.is_tracing();
        for entry in &resp.chunklist.entries {
            if viewer.have.is_some_and(|h| entry.seq <= h) {
                continue;
            }
            if let Some(served) = shard.pop.serve_chunk(now, shard.broadcast, entry.seq) {
                viewer.have = Some(entry.seq);
                shard.checksum = shard.checksum.wrapping_add(splitmix64(
                    splitmix64(viewer.id) ^ splitmix64(entry.seq) ^ now.as_micros(),
                ));
                if !tracing {
                    continue;
                }
                ctx.emit(TraceEvent::ChunkDelivered {
                    broadcast: shard.broadcast.0,
                    viewer: viewer.id,
                    seq: entry.seq,
                    pop: pop_dc.0,
                    available_at_pop_us: served.available_at.as_micros(),
                    discovered_us: now.as_micros(),
                    arrival_us: now.as_micros(),
                    duration_us: (entry.duration_s * 1e6) as u64,
                });
                // Deliver spans ride `ctx.emit` (stamped at `now`) so the
                // sharded merge orders them identically at any lane count.
                // Open and close coincide here: on the fan-out path a
                // download completes within the poll that discovered it.
                let span = Span::viewer_deliver(shard.broadcast.0, entry.seq, viewer.id);
                ctx.emit(span.open(pop_dc.0));
                ctx.emit(span.close());
            }
        }
        viewer.polls += 1;
        let jitter = SimDuration::from_micros(viewer.rng.gen_range(0..200_000));
        let next = now + shard.poll_interval + jitter;
        if shard.roam_every > 0 && viewer.polls.is_multiple_of(shard.roam_every) {
            shard.roams_out += 1;
            let dest = ShardId((ctx.shard().0 + 1) % shard.shard_count);
            ctx.send_to(dest, next, poll_event(viewer));
        } else {
            ctx.schedule_at(next, poll_event(viewer));
        }
    })
}

/// Runs the fan-out on a [`ShardedScheduler`], one shard per POP, with
/// `lanes` worker lanes. Trace events (one [`TraceEvent::ChunkDelivered`]
/// per download) are merged into `telemetry` in `(time, shard, seq)`
/// order, so the sink's bytes are identical for any `lanes` value.
pub fn run_fanout(config: &FanoutConfig, lanes: usize, telemetry: &Telemetry) -> FanoutReport {
    assert!(!config.pops.is_empty(), "need at least one POP");
    assert!(config.viewers_per_pop > 0, "need at least one viewer");
    let broadcast = BroadcastId(1);
    let origin = Arc::new(build_origin(config.stream_secs, config.chunk_secs));
    let end = SimTime::ZERO
        + SimDuration::from_secs(config.stream_secs)
        + SimDuration::from_secs_f64(config.chunk_secs + config.poll_interval_s);
    let shard_count = config.pops.len() as u16;
    let shards: Vec<PopShard> = config
        .pops
        .iter()
        .map(|&dc| PopShard {
            pop: FastlyPop::new(dc),
            origin: Arc::clone(&origin),
            broadcast,
            end,
            poll_interval: SimDuration::from_secs_f64(config.poll_interval_s),
            roam_every: config.roam_every,
            shard_count,
            viewers_done: 0,
            roams_out: 0,
            checksum: 0,
        })
        .collect();
    // Epoch = one poll interval: cross-POP roams quantize to poll
    // boundaries, and the barrier count stays proportional to polls.
    let mut sched = ShardedScheduler::new(
        RngPool::new(config.seed),
        shards,
        SimDuration::from_secs_f64(config.poll_interval_s),
    )
    .with_lanes(lanes);
    sched.set_telemetry(telemetry);
    let pool = RngPool::new(config.seed);
    for (p, _) in config.pops.iter().enumerate() {
        for v in 0..config.viewers_per_pop {
            let id = (p * config.viewers_per_pop + v) as u64;
            let mut rng = pool.fork_indexed("fanout.viewer", id);
            let phase = SimDuration::from_secs_f64(rng.gen_range(0.0..config.poll_interval_s));
            let viewer = Viewer {
                id,
                have: None,
                polls: 0,
                rng,
            };
            sched.schedule(ShardId(p as u16), SimTime::ZERO + phase, poll_event(viewer));
        }
    }
    sched.run();
    let events_fired = sched.events_fired();
    let per_pop: Vec<PopStats> = sched
        .into_states()
        .into_iter()
        .map(|s| PopStats {
            dc: s.pop.datacenter(),
            polls_served: s.pop.work.polls_served,
            origin_fetches: s.pop.work.origin_fetches,
            playlist_rebuilds: s.pop.work.playlist_rebuilds,
            chunks_served: s.pop.work.chunks_served,
            bytes_served: s.pop.work.bytes_served,
            viewers_done: s.viewers_done,
            roams_out: s.roams_out,
            checksum: s.checksum,
        })
        .collect();
    let checksum = per_pop
        .iter()
        .fold(0u64, |acc, p| acc.wrapping_add(p.checksum));
    FanoutReport {
        per_pop,
        events_fired,
        checksum,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> FanoutConfig {
        FanoutConfig {
            viewers_per_pop: 8,
            stream_secs: 20,
            ..FanoutConfig::default()
        }
    }

    #[test]
    fn every_viewer_finishes_and_chunks_flow() {
        let config = quick();
        let report = run_fanout(&config, 1, &Telemetry::disabled());
        let total_viewers = (config.pops.len() * config.viewers_per_pop) as u64;
        assert_eq!(
            report.per_pop.iter().map(|p| p.viewers_done).sum::<u64>(),
            total_viewers
        );
        assert!(report.chunks_served() > 0);
        assert!(report.per_pop.iter().all(|p| p.polls_served > 0));
    }

    #[test]
    fn roaming_crosses_shards() {
        let report = run_fanout(&quick(), 1, &Telemetry::disabled());
        assert!(
            report.per_pop.iter().map(|p| p.roams_out).sum::<u64>() > 0,
            "roam_every=5 over a 20s stream must roam someone"
        );
    }

    #[test]
    fn lane_count_does_not_change_results() {
        let config = quick();
        let one = run_fanout(&config, 1, &Telemetry::disabled());
        for lanes in [2, 6] {
            let many = run_fanout(&config, lanes, &Telemetry::disabled());
            assert_eq!(one, many, "lanes={lanes}");
        }
    }

    #[test]
    fn disabling_roam_keeps_viewers_home() {
        let config = FanoutConfig {
            roam_every: 0,
            ..quick()
        };
        let report = run_fanout(&config, 2, &Telemetry::disabled());
        assert!(report.per_pop.iter().all(|p| p.roams_out == 0));
        assert!(report
            .per_pop
            .iter()
            .all(|p| p.viewers_done == config.viewers_per_pop as u64));
    }

    #[test]
    fn edge_work_follows_the_chunks_not_the_audience() {
        // One origin fetch per (chunk, POP) however many viewers poll, and
        // a chunklist build only when a fetch starts or lands.
        let chunks = build_origin(quick().stream_secs, quick().chunk_secs).len() as u64;
        for viewers_per_pop in [8, 64] {
            let config = FanoutConfig {
                viewers_per_pop,
                ..quick()
            };
            let report = run_fanout(&config, 1, &Telemetry::disabled());
            for p in &report.per_pop {
                assert!(p.polls_served > 5 * viewers_per_pop as u64);
                assert!(
                    p.origin_fetches <= chunks,
                    "{viewers_per_pop} viewers: {} fetches of {chunks} chunks",
                    p.origin_fetches
                );
                assert!(
                    p.playlist_rebuilds <= 2 * chunks + 1,
                    "{viewers_per_pop} viewers: {} rebuilds for {chunks} chunks",
                    p.playlist_rebuilds
                );
            }
        }
    }

    #[test]
    fn report_renders_every_pop() {
        let config = quick();
        let report = run_fanout(&config, 1, &Telemetry::disabled());
        let text = report.render();
        for &dc in &config.pops {
            assert!(text.contains(datacenters::datacenter(dc).city));
        }
        assert!(text.contains("checksum"));
    }
}
