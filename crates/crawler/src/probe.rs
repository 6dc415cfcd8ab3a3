//! The high-frequency HLS probe (§4.3): a crawler that polls a Fastly POP
//! every 100 ms, far faster than any real viewer, so that (a) it is the
//! "first viewer poll" that triggers every origin fetch, and (b) it
//! timestamps chunk availability at the POP to within one probe interval.
//! This is how the paper measured the Wowza2Fastly delay.

use livescope_cdn::ids::BroadcastId;
use livescope_cdn::Cluster;
use livescope_net::datacenters::DatacenterId;
use livescope_sim::{SimDuration, SimTime};
use livescope_telemetry::{CounterId, Telemetry, TraceEvent};

/// Default probe interval (the paper's 0.1 s).
pub const PROBE_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// Availability observation for one chunk at one POP.
#[derive(Clone, Copy, Debug)]
pub struct ChunkObservation {
    /// Chunk sequence number within the probed broadcast.
    pub seq: u64,
    /// When the chunk closed at the origin (⑦).
    pub origin_ready: SimTime,
    /// When it became available at the probed POP (⑪).
    pub pop_available: SimTime,
}

impl ChunkObservation {
    /// The measured Wowza2Fastly delay, seconds.
    pub fn w2f_delay_s(&self) -> f64 {
        self.pop_available
            .saturating_since(self.origin_ready)
            .as_secs_f64()
    }
}

/// The probe: drives polls against one (broadcast, POP) pair.
pub struct HighFreqProbe {
    broadcast: BroadcastId,
    pop: DatacenterId,
    interval: SimDuration,
    observations: Vec<ChunkObservation>,
    seen_through: Option<u64>,
    /// Total polls issued so far.
    pub polls: u64,
    telemetry: Telemetry,
    c_polls: CounterId,
    c_observations: CounterId,
}

impl HighFreqProbe {
    /// A probe on `broadcast` at `pop` with the paper's 0.1 s interval.
    pub fn new(broadcast: BroadcastId, pop: DatacenterId) -> Self {
        Self::with_interval(broadcast, pop, PROBE_INTERVAL)
    }

    /// A probe with a custom interval (interval sweeps).
    pub fn with_interval(broadcast: BroadcastId, pop: DatacenterId, interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "probe interval must be positive");
        HighFreqProbe {
            broadcast,
            pop,
            interval,
            observations: Vec::new(),
            seen_through: None,
            polls: 0,
            telemetry: Telemetry::disabled(),
            c_polls: CounterId::INERT,
            c_observations: CounterId::INERT,
        }
    }

    /// Attaches telemetry: poll/observation counters and a `ProbeSample`
    /// trace event per newly observed chunk.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.c_polls = telemetry.counter("crawler.probe_polls");
        self.c_observations = telemetry.counter("crawler.probe_observations");
        self.telemetry = telemetry.clone();
    }

    /// Probe interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Runs the probe from `from` to `to`, issuing a poll every interval
    /// and recording availability times of newly visible chunks.
    pub fn run(&mut self, cluster: &mut Cluster, from: SimTime, to: SimTime) {
        let mut now = from;
        while now <= to {
            self.poll_once(cluster, now);
            now += self.interval;
        }
    }

    /// One probe poll at `now`.
    pub fn poll_once(&mut self, cluster: &mut Cluster, now: SimTime) {
        self.polls += 1;
        self.telemetry.add(self.c_polls, 1);
        if cluster.poll_hls(now, self.broadcast, self.pop).is_err() {
            return;
        }
        // Record availability for every chunk the POP now knows about
        // (including in-flight fetches this poll just triggered: their
        // availability timestamp is already determined). Origin seq `i`
        // sits at index `i`, so the chunks not yet observed start at
        // `seen + 1`.
        let state = cluster
            .control
            .broadcast(self.broadcast)
            .expect("probed broadcast exists");
        let origin = cluster.wowza[state.wowza_dc.0 as usize].origin_chunks(self.broadcast);
        let pop = &cluster.fastly[(self.pop.0 - 8) as usize];
        let unseen_from = self.seen_through.map_or(0, |seen| seen as usize + 1);
        for ready in origin.get(unseen_from..).unwrap_or_default() {
            let seq = ready.chunk.seq;
            if let Some(available) = pop.availability(self.broadcast, seq) {
                self.observations.push(ChunkObservation {
                    seq,
                    origin_ready: ready.ready_at,
                    pop_available: available,
                });
                self.telemetry.add(self.c_observations, 1);
                self.telemetry.emit(
                    now.as_micros(),
                    TraceEvent::ProbeSample {
                        broadcast: self.broadcast.0,
                        pop: self.pop.0,
                        seq,
                        origin_ready_us: ready.ready_at.as_micros(),
                        pop_available_us: available.as_micros(),
                    },
                );
                self.seen_through = Some(seq);
            }
        }
    }

    /// All observations so far.
    pub fn observations(&self) -> &[ChunkObservation] {
        &self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use livescope_cdn::ids::UserId;
    use livescope_net::geo::GeoPoint;
    use livescope_proto::rtmp::VideoFrame;
    use livescope_sim::RngPool;

    fn frame(seq: u64) -> VideoFrame {
        VideoFrame::new(
            seq,
            seq * 40_000,
            seq.is_multiple_of(50),
            Bytes::from(vec![1u8; 1_000]),
        )
    }

    fn setup() -> (Cluster, BroadcastId) {
        let pool = RngPool::new(3);
        let mut cluster = Cluster::new(&pool, SimDuration::from_secs(3), 100);
        let grant =
            cluster.create_broadcast(SimTime::ZERO, UserId(1), &GeoPoint::new(39.04, -77.49));
        cluster
            .connect_publisher(SimTime::ZERO, grant.id, &grant.token)
            .unwrap();
        // 15 s of frames → 4 complete chunks (ready at 3, 6, 9, 12 s).
        for i in 0..375u64 {
            cluster
                .ingest_decoded(SimTime::from_millis(i * 40), grant.id, frame(i))
                .unwrap();
        }
        (cluster, grant.id)
    }

    #[test]
    fn probe_observes_every_chunk_with_tight_w2f() {
        let (mut cluster, id) = setup();
        // Ashburn broadcaster → Wowza dc 0; probe the co-located POP (8).
        let mut probe = HighFreqProbe::new(id, DatacenterId(8));
        probe.run(&mut cluster, SimTime::ZERO, SimTime::from_secs(20));
        let obs = probe.observations();
        assert_eq!(obs.len(), 4, "all four chunks observed");
        for o in obs {
            // Co-located gateway: W2F = probe gap (≤0.1) + short transfer.
            assert!(
                o.w2f_delay_s() < 0.25,
                "co-located W2F too big: {}",
                o.w2f_delay_s()
            );
            assert!(o.w2f_delay_s() > 0.0);
        }
    }

    #[test]
    fn distant_pop_measures_larger_w2f() {
        let (mut cluster, id) = setup();
        let mut near = HighFreqProbe::new(id, DatacenterId(8)); // Ashburn
        let mut far = HighFreqProbe::new(id, DatacenterId(27)); // Tokyo
        near.run(&mut cluster, SimTime::ZERO, SimTime::from_secs(20));
        far.run(&mut cluster, SimTime::ZERO, SimTime::from_secs(20));
        let mean = |obs: &[ChunkObservation]| {
            obs.iter().map(|o| o.w2f_delay_s()).sum::<f64>() / obs.len() as f64
        };
        assert!(
            mean(far.observations()) > mean(near.observations()) + 0.2,
            "far {} vs near {}",
            mean(far.observations()),
            mean(near.observations())
        );
    }

    #[test]
    fn slower_probe_inflates_measured_w2f() {
        // The probe interval adds to the measurement — exactly why the
        // paper polled at 0.1 s.
        let (mut cluster_a, id_a) = setup();
        let (mut cluster_b, id_b) = setup();
        let mut fast = HighFreqProbe::new(id_a, DatacenterId(8));
        let mut slow =
            HighFreqProbe::with_interval(id_b, DatacenterId(8), SimDuration::from_secs(2));
        fast.run(&mut cluster_a, SimTime::ZERO, SimTime::from_secs(20));
        slow.run(&mut cluster_b, SimTime::ZERO, SimTime::from_secs(20));
        let mean = |obs: &[ChunkObservation]| {
            obs.iter().map(|o| o.w2f_delay_s()).sum::<f64>() / obs.len().max(1) as f64
        };
        assert!(mean(slow.observations()) > mean(fast.observations()));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_panics() {
        HighFreqProbe::with_interval(BroadcastId(1), DatacenterId(8), SimDuration::ZERO);
    }
}
