//! Viewer drivers: the RTMP push receiver and the HLS polling loop.
//!
//! Both produce [`ArrivedUnit`] traces for the playback simulator plus the
//! raw timestamps the delay-breakdown experiments need (the paper's
//! ①–⑰ of Fig 10).

use rand::rngs::SmallRng;

use livescope_cdn::ids::{BroadcastId, UserId};
use livescope_cdn::Cluster;
use livescope_net::datacenters::{self, DatacenterId};
use livescope_net::geo::GeoPoint;
use livescope_net::{AccessLink, Link};
use livescope_proto::rtmp::FrameMeta;
use livescope_sim::{SimDuration, SimTime};
use livescope_telemetry::{CounterId, HistogramId, Span, Telemetry, TraceEvent};

use crate::playback::ArrivedUnit;

/// A passive RTMP viewer: records every pushed frame.
#[derive(Debug)]
pub struct RtmpViewer {
    pub user: UserId,
    units: Vec<ArrivedUnit>,
    /// Per-frame `(capture→server, server→device)` delay samples, seconds.
    samples: Vec<(f64, f64)>,
    telemetry: Telemetry,
    /// Broadcast id stamped onto trace events (set by `attach_telemetry`).
    broadcast: u64,
    c_units: CounterId,
    h_last_mile_us: HistogramId,
}

impl RtmpViewer {
    /// A fresh viewer.
    pub fn new(user: UserId) -> Self {
        RtmpViewer {
            user,
            units: Vec::new(),
            samples: Vec::new(),
            telemetry: Telemetry::disabled(),
            broadcast: 0,
            c_units: CounterId::INERT,
            h_last_mile_us: HistogramId::INERT,
        }
    }

    /// Attaches telemetry: a received-unit counter, a last-mile delay
    /// histogram, and an `RtmpUnitDelivered` trace event per frame,
    /// stamped with `broadcast`.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry, broadcast: BroadcastId) {
        self.c_units = telemetry.counter("client.rtmp_units_received");
        self.h_last_mile_us = telemetry.histogram("client.rtmp_last_mile_us");
        self.broadcast = broadcast.0;
        self.telemetry = telemetry.clone();
    }

    /// Records one pushed frame.
    ///
    /// * `capture` — frame capture instant (device clock mapped to sim
    ///   time by the controlled-experiment setup);
    /// * `server_arrival` — when the ingest server received it (②);
    /// * `push_delay` — sampled server→viewer delivery time (③−②).
    pub fn record_push(
        &mut self,
        frame: &FrameMeta,
        capture: SimTime,
        server_arrival: SimTime,
        push_delay: SimDuration,
    ) {
        let arrival = server_arrival + push_delay;
        self.units.push(ArrivedUnit {
            media_ts_us: frame.capture_ts_us,
            duration_us: livescope_proto::rtmp::FRAME_INTERVAL_MS * 1_000,
            arrival,
        });
        self.samples.push((
            server_arrival.saturating_since(capture).as_secs_f64(),
            push_delay.as_secs_f64(),
        ));
        self.telemetry.add(self.c_units, 1);
        self.telemetry
            .record(self.h_last_mile_us, push_delay.as_micros());
        self.telemetry.emit(
            arrival.as_micros(),
            TraceEvent::RtmpUnitDelivered {
                broadcast: self.broadcast,
                viewer: self.user.0,
                seq: frame.sequence,
                upload_us: server_arrival.saturating_since(capture).as_micros(),
                last_mile_us: push_delay.as_micros(),
            },
        );
    }

    /// The arrival trace for playback simulation.
    pub fn units(&self) -> &[ArrivedUnit] {
        &self.units
    }

    /// Mean `(upload, last-mile)` delays over recorded frames, seconds.
    pub fn mean_delays(&self) -> (f64, f64) {
        if self.samples.is_empty() {
            return (0.0, 0.0);
        }
        let n = self.samples.len() as f64;
        let up = self.samples.iter().map(|s| s.0).sum::<f64>() / n;
        let lm = self.samples.iter().map(|s| s.1).sum::<f64>() / n;
        (up, lm)
    }
}

/// Receipt of one HLS chunk at the viewer.
#[derive(Clone, Copy, Debug)]
pub struct ChunkReceipt {
    pub seq: u64,
    /// Media timestamp of the chunk's first frame, µs.
    pub start_ts_us: u64,
    pub duration_us: u64,
    /// When this chunk became available at the POP (⑪).
    pub available_at_pop: SimTime,
    /// The poll that discovered it (⑭).
    pub discovered_at: SimTime,
    /// Arrival on the device after the last-mile transfer (⑮).
    pub arrival: SimTime,
}

/// An active HLS viewer: polls the chunklist on an interval and downloads
/// new chunks.
pub struct HlsViewer {
    pub user: UserId,
    pub pop: DatacenterId,
    broadcast: BroadcastId,
    link: Link,
    have_seq: Option<u64>,
    receipts: Vec<ChunkReceipt>,
    /// Chunklist polls issued.
    pub polls: u64,
    telemetry: Telemetry,
    c_chunks: CounterId,
    h_last_mile_us: HistogramId,
}

impl HlsViewer {
    /// A viewer at `location` watching `broadcast` via its nearest POP.
    pub fn new(
        user: UserId,
        broadcast: BroadcastId,
        pop: DatacenterId,
        location: &GeoPoint,
        access: AccessLink,
    ) -> Self {
        let link = Link::device_path(location, &datacenters::datacenter(pop).location, access);
        HlsViewer {
            user,
            pop,
            broadcast,
            link,
            have_seq: None,
            receipts: Vec::new(),
            polls: 0,
            telemetry: Telemetry::disabled(),
            c_chunks: CounterId::INERT,
            h_last_mile_us: HistogramId::INERT,
        }
    }

    /// Attaches telemetry: a received-chunk counter, a last-mile delay
    /// histogram, and a `ChunkDelivered` trace event per download.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.c_chunks = telemetry.counter("client.hls_chunks_received");
        self.h_last_mile_us = telemetry.histogram("client.hls_last_mile_us");
        self.telemetry = telemetry.clone();
    }

    /// One poll cycle at `now`: fetch the chunklist, download any chunks
    /// newer than what we have. Returns the number of new chunks.
    pub fn poll(&mut self, cluster: &mut Cluster, now: SimTime, rng: &mut SmallRng) -> usize {
        self.polls += 1;
        let Ok(resp) = cluster.poll_hls(now, self.broadcast, self.pop) else {
            return 0;
        };
        let mut new_chunks = 0;
        for entry in &resp.chunklist.entries {
            if self.have_seq.is_some_and(|have| entry.seq <= have) {
                continue;
            }
            let Some(served) = cluster.fastly[(self.pop.0 - 8) as usize].serve_chunk(
                now,
                self.broadcast,
                entry.seq,
            ) else {
                continue;
            };
            let available_at_pop = served.available_at;
            let chunk = &served.chunk;
            let transfer = self
                .link
                .transmit(rng, now, chunk.payload_bytes())
                .delay()
                // A dropped chunk transfer in HLS is retried by TCP; model
                // as a slow arrival one interval later.
                .unwrap_or(SimDuration::from_secs(2));
            let arrival = now + transfer;
            self.receipts.push(ChunkReceipt {
                seq: chunk.seq,
                start_ts_us: chunk.start_ts_us,
                duration_us: chunk.duration_us,
                available_at_pop,
                discovered_at: now,
                arrival,
            });
            self.telemetry.add(self.c_chunks, 1);
            self.telemetry
                .record(self.h_last_mile_us, transfer.as_micros());
            self.telemetry.emit(
                arrival.as_micros(),
                TraceEvent::ChunkDelivered {
                    broadcast: self.broadcast.0,
                    viewer: self.user.0,
                    seq: chunk.seq,
                    pop: self.pop.0,
                    available_at_pop_us: available_at_pop.as_micros(),
                    discovered_us: now.as_micros(),
                    arrival_us: arrival.as_micros(),
                    duration_us: chunk.duration_us,
                },
            );
            let span = Span::viewer_deliver(self.broadcast.0, chunk.seq, self.user.0);
            self.telemetry.emit(now.as_micros(), span.open(self.pop.0));
            self.telemetry.emit(arrival.as_micros(), span.close());
            self.have_seq = Some(chunk.seq);
            new_chunks += 1;
        }
        new_chunks
    }

    /// All chunk receipts, in download order.
    pub fn receipts(&self) -> &[ChunkReceipt] {
        &self.receipts
    }

    /// The arrival trace for playback simulation.
    pub fn units(&self) -> Vec<ArrivedUnit> {
        self.receipts
            .iter()
            .map(|r| ArrivedUnit {
                media_ts_us: r.start_ts_us,
                duration_us: r.duration_us,
                arrival: r.arrival,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use livescope_proto::rtmp::VideoFrame;
    use livescope_sim::RngPool;
    use rand::SeedableRng;

    fn sf() -> GeoPoint {
        GeoPoint::new(37.77, -122.42)
    }

    fn frame(seq: u64) -> VideoFrame {
        VideoFrame::new(
            seq,
            seq * 40_000,
            seq.is_multiple_of(50),
            Bytes::from(vec![1u8; 2_500]),
        )
    }

    #[test]
    fn rtmp_viewer_accumulates_units_and_delays() {
        let mut v = RtmpViewer::new(UserId(7));
        for i in 0..10u64 {
            let capture = SimTime::from_millis(i * 40);
            let server = capture + SimDuration::from_millis(30);
            v.record_push(
                &frame(i).meta,
                capture,
                server,
                SimDuration::from_millis(25),
            );
        }
        assert_eq!(v.units().len(), 10);
        let (up, lm) = v.mean_delays();
        assert!((up - 0.030).abs() < 1e-9);
        assert!((lm - 0.025).abs() < 1e-9);
        assert_eq!(v.units()[3].arrival, SimTime::from_millis(3 * 40 + 55));
    }

    #[test]
    fn empty_rtmp_viewer_reports_zero() {
        let v = RtmpViewer::new(UserId(1));
        assert_eq!(v.mean_delays(), (0.0, 0.0));
    }

    #[test]
    fn hls_viewer_downloads_chunks_through_a_real_cluster() {
        let pool = RngPool::new(11);
        let mut cluster = Cluster::new(&pool, SimDuration::from_secs(3), 100);
        let mut rng = SmallRng::seed_from_u64(2);
        let grant = cluster.create_broadcast(SimTime::ZERO, UserId(1), &sf());
        cluster
            .connect_publisher(SimTime::ZERO, grant.id, &grant.token)
            .unwrap();
        // Feed 10 seconds of frames → 3 complete chunks.
        for i in 0..250u64 {
            let t = SimTime::from_millis(i * 40);
            cluster.ingest_decoded(t, grant.id, frame(i)).unwrap();
        }
        let pop = DatacenterId(17); // San Jose POP, near the SF viewer
        let mut viewer = HlsViewer::new(UserId(9), grant.id, pop, &sf(), AccessLink::StableWifi);
        // Poll every 2.8 s for 30 s of sim time.
        let mut total_new = 0;
        for k in 0..11u64 {
            let now = SimTime::from_secs(10) + SimDuration::from_millis(k * 2_800);
            total_new += viewer.poll(&mut cluster, now, &mut rng);
        }
        assert_eq!(total_new, 3, "all three chunks should arrive");
        assert_eq!(viewer.polls, 11);
        let receipts = viewer.receipts();
        for r in receipts {
            assert!(r.available_at_pop <= r.discovered_at);
            assert!(r.discovered_at < r.arrival);
        }
        // Sequences are in order with no duplicates.
        let seqs: Vec<u64> = receipts.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        let units = viewer.units();
        assert_eq!(units.len(), 3);
        assert_eq!(units[1].media_ts_us, 75 * 40_000);
    }

    #[test]
    fn hls_viewer_survives_polling_a_dead_broadcast() {
        let pool = RngPool::new(12);
        let mut cluster = Cluster::new(&pool, SimDuration::from_secs(3), 100);
        let mut rng = SmallRng::seed_from_u64(3);
        let mut viewer = HlsViewer::new(
            UserId(9),
            BroadcastId(404),
            DatacenterId(8),
            &sf(),
            AccessLink::StableWifi,
        );
        assert_eq!(
            viewer.poll(&mut cluster, SimTime::from_secs(1), &mut rng),
            0
        );
        assert!(viewer.receipts().is_empty());
    }
}
