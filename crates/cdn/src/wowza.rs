//! The Wowza-style ingest server: persistent RTMP sessions, per-frame push
//! fan-out, and chunk assembly for the HLS path.
//!
//! One `WowzaServer` models one of the 8 EC2-hosted ingest datacenters.
//! Broadcasters connect with the token the control plane issued (compared
//! in plaintext — the §7 vulnerability is that *nothing else* is ever
//! checked); RTMP viewers subscribe and receive every frame as soon as it
//! arrives; a [`Chunker`] per broadcast feeds the HLS origin store.

use std::collections::HashMap;

use bytes::Bytes;
use rand::rngs::SmallRng;

use livescope_net::datacenters::DatacenterId;
use livescope_net::Link;
use livescope_proto::rtmp::{RtmpMessage, VideoFrame};
use livescope_sim::{SimDuration, SimTime};
use livescope_telemetry::{CounterId, HistogramId, Span, Telemetry, TraceEvent};

use crate::chunker::{Chunker, ReadyChunk};
use crate::ids::{BroadcastId, UserId};

/// Ingest failure modes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IngestError {
    /// No such broadcast registered at this datacenter.
    UnknownBroadcast,
    /// Publisher presented the wrong token.
    BadToken,
    /// Wire bytes failed to decode as an RTMP frame message.
    Malformed,
    /// Frame failed the installed integrity verifier (§7.2 defense).
    VerificationFailed,
    /// Publisher already connected (duplicate connect).
    AlreadyPublishing,
    /// No publisher session (frames before connect).
    NotPublishing,
}

/// A frame delivery to one RTMP subscriber.
#[derive(Clone, Debug)]
pub struct PushDelivery {
    pub viewer: UserId,
    /// Encoded frame message as pushed on the wire.
    pub wire: Bytes,
    /// Sampled server→viewer delay; `None` when the subscriber's link
    /// dropped the frame.
    pub delay: Option<SimDuration>,
}

/// Result of ingesting one frame.
#[derive(Debug, Default)]
pub struct IngestOutcome {
    /// Per-subscriber pushes.
    pub deliveries: Vec<PushDelivery>,
    /// A chunk that closed with this frame, destined for the HLS origin
    /// store.
    pub completed_chunk: Option<ReadyChunk>,
}

/// Work counters, the raw material of the Fig 14 CPU comparison.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkCounters {
    /// Frames accepted from publishers.
    pub frames_in: u64,
    /// Frame messages pushed to subscribers (frames × audience).
    pub frame_pushes: u64,
    /// Bytes serialized onto subscriber connections.
    pub bytes_pushed: u64,
    /// Chunks assembled for the HLS origin.
    pub chunks_built: u64,
    /// Frames rejected by the integrity verifier.
    pub frames_rejected: u64,
}

/// Per-broadcast ingest session.
struct Session {
    token: String,
    publishing: bool,
    subscribers: Vec<(UserId, Link)>,
    chunker: Chunker,
    /// HLS origin store: chunks with their ready times, in seq order.
    origin: Vec<ReadyChunk>,
}

/// Optional per-frame integrity verifier (the §7.2 defense hook). Returns
/// `true` when the frame is authentic.
pub type FrameVerifier = Box<dyn Fn(&VideoFrame) -> bool + Send>;

/// One ingest datacenter.
pub struct WowzaServer {
    dc: DatacenterId,
    chunk_duration: SimDuration,
    sessions: HashMap<BroadcastId, Session>,
    verifier: Option<FrameVerifier>,
    /// Cumulative work counters.
    pub work: WorkCounters,
    telemetry: Telemetry,
    c_frames_in: CounterId,
    c_frame_pushes: CounterId,
    c_chunks_built: CounterId,
    c_frames_rejected: CounterId,
    h_chunk_duration_us: HistogramId,
}

impl WowzaServer {
    /// A server at `dc` producing chunks of `chunk_duration`.
    pub fn new(dc: DatacenterId, chunk_duration: SimDuration) -> Self {
        WowzaServer {
            dc,
            chunk_duration,
            sessions: HashMap::new(),
            verifier: None,
            work: WorkCounters::default(),
            telemetry: Telemetry::disabled(),
            c_frames_in: CounterId::INERT,
            c_frame_pushes: CounterId::INERT,
            c_chunks_built: CounterId::INERT,
            c_frames_rejected: CounterId::INERT,
            h_chunk_duration_us: HistogramId::INERT,
        }
    }

    /// Attaches telemetry: per-server ingest counters plus
    /// `RtmpFramePushed` / `ChunkCompleted` trace events. All servers
    /// attached to the same handle share one metric namespace.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.c_frames_in = telemetry.counter("wowza.frames_in");
        self.c_frame_pushes = telemetry.counter("wowza.frame_pushes");
        self.c_chunks_built = telemetry.counter("wowza.chunks_built");
        self.c_frames_rejected = telemetry.counter("wowza.frames_rejected");
        self.h_chunk_duration_us = telemetry.histogram("wowza.chunk_duration_us");
        self.telemetry = telemetry.clone();
    }

    /// Installs the frame integrity verifier (defense experiments).
    pub fn set_verifier(&mut self, verifier: Option<FrameVerifier>) {
        self.verifier = verifier;
    }

    /// Emits the chunk-seal span pair for a just-completed chunk: open at
    /// the chunk's media start, close when the origin copy is servable.
    fn emit_seal_span(&self, broadcast: BroadcastId, ready: &ReadyChunk) {
        let span = Span::chunk_seal(broadcast.0, ready.chunk.seq);
        self.telemetry
            .emit(ready.chunk.start_ts_us, span.open(self.dc.0));
        self.telemetry
            .emit(ready.ready_at.as_micros(), span.close());
    }

    /// Datacenter this server runs in.
    pub fn datacenter(&self) -> DatacenterId {
        self.dc
    }

    /// Registers a broadcast and its expected token (control-plane call).
    pub fn register_broadcast(&mut self, broadcast: BroadcastId, token: String) {
        self.sessions.insert(
            broadcast,
            Session {
                token,
                publishing: false,
                subscribers: Vec::new(),
                chunker: Chunker::new(self.chunk_duration),
                origin: Vec::new(),
            },
        );
    }

    /// Accepts a publisher connect carrying the (plaintext) token.
    pub fn connect_publisher(
        &mut self,
        broadcast: BroadcastId,
        token: &str,
    ) -> Result<(), IngestError> {
        let session = self
            .sessions
            .get_mut(&broadcast)
            .ok_or(IngestError::UnknownBroadcast)?;
        if session.token != token {
            return Err(IngestError::BadToken);
        }
        if session.publishing {
            return Err(IngestError::AlreadyPublishing);
        }
        session.publishing = true;
        Ok(())
    }

    /// Adds an RTMP subscriber with its delivery link.
    pub fn subscribe(
        &mut self,
        broadcast: BroadcastId,
        viewer: UserId,
        link: Link,
    ) -> Result<(), IngestError> {
        let session = self
            .sessions
            .get_mut(&broadcast)
            .ok_or(IngestError::UnknownBroadcast)?;
        session.subscribers.push((viewer, link));
        Ok(())
    }

    /// Removes an RTMP subscriber (no-op if absent).
    pub fn unsubscribe(&mut self, broadcast: BroadcastId, viewer: UserId) {
        if let Some(session) = self.sessions.get_mut(&broadcast) {
            session.subscribers.retain(|(u, _)| *u != viewer);
        }
    }

    /// Current RTMP subscriber count for a broadcast.
    pub fn subscriber_count(&self, broadcast: BroadcastId) -> usize {
        self.sessions
            .get(&broadcast)
            .map_or(0, |s| s.subscribers.len())
    }

    /// Ingests one frame *as wire bytes* arriving at `now`. Wire-level
    /// input means upstream tampering flows through the same decode path a
    /// real server would run.
    pub fn ingest_frame(
        &mut self,
        now: SimTime,
        broadcast: BroadcastId,
        wire: Bytes,
        rng: &mut SmallRng,
    ) -> Result<IngestOutcome, IngestError> {
        let frame = match RtmpMessage::decode(wire) {
            Ok(RtmpMessage::Frame(frame)) => frame,
            _ => return Err(IngestError::Malformed),
        };
        self.ingest_decoded(now, broadcast, frame, rng)
    }

    /// Ingests an already-decoded frame (the common fast path for
    /// large-scale simulations that skip wire encoding).
    pub fn ingest_decoded(
        &mut self,
        now: SimTime,
        broadcast: BroadcastId,
        frame: VideoFrame,
        rng: &mut SmallRng,
    ) -> Result<IngestOutcome, IngestError> {
        // Verify before borrowing the session mutably.
        if let Some(verifier) = &self.verifier {
            if !verifier(&frame) {
                self.work.frames_rejected += 1;
                self.telemetry.add(self.c_frames_rejected, 1);
                return Err(IngestError::VerificationFailed);
            }
        }
        let session = self
            .sessions
            .get_mut(&broadcast)
            .ok_or(IngestError::UnknownBroadcast)?;
        if !session.publishing {
            return Err(IngestError::NotPublishing);
        }
        self.work.frames_in += 1;
        // Push to every RTMP subscriber. The message is serialized *per
        // connection* — that per-frame, per-viewer copy is exactly the
        // work that makes RTMP expensive at scale (Fig 14); a real server
        // frames (and on RTMPS, encrypts) each socket's stream separately.
        let mut deliveries = Vec::with_capacity(session.subscribers.len());
        for (viewer, link) in session.subscribers.iter_mut() {
            let push_wire = RtmpMessage::encode_frame(&frame);
            self.work.frame_pushes += 1;
            self.work.bytes_pushed += push_wire.len() as u64;
            let delay = link.transmit(rng, now, push_wire.len()).delay();
            deliveries.push(PushDelivery {
                viewer: *viewer,
                wire: push_wire,
                delay,
            });
        }
        self.telemetry.add(self.c_frames_in, 1);
        self.telemetry
            .add(self.c_frame_pushes, deliveries.len() as u64);
        self.telemetry.emit(
            now.as_micros(),
            TraceEvent::RtmpFramePushed {
                broadcast: broadcast.0,
                seq: frame.meta.sequence,
                capture_us: frame.meta.capture_ts_us,
                subscribers: deliveries.len() as u32,
            },
        );
        let completed_chunk = session.chunker.push(now, frame);
        if let Some(ready) = &completed_chunk {
            self.work.chunks_built += 1;
            session.origin.push(ready.clone());
            self.telemetry.add(self.c_chunks_built, 1);
            self.telemetry
                .record(self.h_chunk_duration_us, ready.chunk.duration_us);
            self.telemetry.emit(
                ready.ready_at.as_micros(),
                TraceEvent::ChunkCompleted {
                    broadcast: broadcast.0,
                    seq: ready.chunk.seq,
                    start_ts_us: ready.chunk.start_ts_us,
                    duration_us: ready.chunk.duration_us,
                    frames: ready.chunk.frames.len() as u32,
                },
            );
            self.emit_seal_span(broadcast, ready);
        }
        Ok(IngestOutcome {
            deliveries,
            completed_chunk,
        })
    }

    /// Ends a broadcast: flushes the open chunk and drops the session.
    pub fn end_broadcast(&mut self, now: SimTime, broadcast: BroadcastId) -> Option<ReadyChunk> {
        let mut session = self.sessions.remove(&broadcast)?;
        // The origin store is gone with the session; release it before the
        // tail chunk is sealed rather than after.
        drop(std::mem::take(&mut session.origin));
        let last = session.chunker.flush(now);
        if let Some(ready) = &last {
            self.work.chunks_built += 1;
            self.telemetry.add(self.c_chunks_built, 1);
            self.telemetry
                .record(self.h_chunk_duration_us, ready.chunk.duration_us);
            self.telemetry.emit(
                ready.ready_at.as_micros(),
                TraceEvent::ChunkCompleted {
                    broadcast: broadcast.0,
                    seq: ready.chunk.seq,
                    start_ts_us: ready.chunk.start_ts_us,
                    duration_us: ready.chunk.duration_us,
                    frames: ready.chunk.frames.len() as u32,
                },
            );
            self.emit_seal_span(broadcast, ready);
        }
        last
    }

    /// The HLS origin store for a broadcast (chunks + ready times).
    pub fn origin_chunks(&self, broadcast: BroadcastId) -> &[ReadyChunk] {
        self.sessions
            .get(&broadcast)
            .map_or(&[], |s| s.origin.as_slice())
    }

    /// True while the broadcast has a live publisher session.
    pub fn is_publishing(&self, broadcast: BroadcastId) -> bool {
        self.sessions.get(&broadcast).is_some_and(|s| s.publishing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livescope_net::geo::GeoPoint;
    use livescope_net::AccessLink;
    use rand::SeedableRng;

    fn server() -> WowzaServer {
        WowzaServer::new(DatacenterId(0), SimDuration::from_secs(3))
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1)
    }

    fn viewer_link() -> Link {
        Link::device_path(
            &GeoPoint::new(37.77, -122.42),
            &GeoPoint::new(39.04, -77.49),
            AccessLink::StableWifi,
        )
    }

    fn frame(seq: u64) -> VideoFrame {
        VideoFrame::new(
            seq,
            seq * 40_000,
            seq.is_multiple_of(75),
            Bytes::from(vec![7u8; 32]),
        )
    }

    fn frame_wire(seq: u64) -> Bytes {
        RtmpMessage::Frame(frame(seq)).encode()
    }

    const B: BroadcastId = BroadcastId(1);

    fn publishing_server() -> WowzaServer {
        let mut s = server();
        s.register_broadcast(B, "tok".into());
        s.connect_publisher(B, "tok").unwrap();
        s
    }

    #[test]
    fn token_gatekeeping_works() {
        let mut s = server();
        s.register_broadcast(B, "tok".into());
        assert_eq!(
            s.connect_publisher(BroadcastId(9), "tok"),
            Err(IngestError::UnknownBroadcast)
        );
        assert_eq!(s.connect_publisher(B, "wrong"), Err(IngestError::BadToken));
        assert!(s.connect_publisher(B, "tok").is_ok());
        assert_eq!(
            s.connect_publisher(B, "tok"),
            Err(IngestError::AlreadyPublishing)
        );
        assert!(s.is_publishing(B));
    }

    #[test]
    fn frames_before_connect_are_rejected() {
        let mut s = server();
        s.register_broadcast(B, "tok".into());
        let err = s
            .ingest_frame(SimTime::ZERO, B, frame_wire(0), &mut rng())
            .unwrap_err();
        assert_eq!(err, IngestError::NotPublishing);
    }

    #[test]
    fn malformed_wire_is_rejected() {
        let mut s = publishing_server();
        let err = s
            .ingest_frame(SimTime::ZERO, B, Bytes::from_static(b"junk"), &mut rng())
            .unwrap_err();
        assert_eq!(err, IngestError::Malformed);
        // A non-frame message is also not ingestible.
        let err = s
            .ingest_frame(SimTime::ZERO, B, RtmpMessage::Close.encode(), &mut rng())
            .unwrap_err();
        assert_eq!(err, IngestError::Malformed);
    }

    #[test]
    fn frames_fan_out_to_all_subscribers() {
        let mut s = publishing_server();
        let mut r = rng();
        for u in 0..5 {
            s.subscribe(B, UserId(u), viewer_link()).unwrap();
        }
        assert_eq!(s.subscriber_count(B), 5);
        let out = s
            .ingest_frame(SimTime::ZERO, B, frame_wire(0), &mut r)
            .unwrap();
        assert_eq!(out.deliveries.len(), 5);
        for d in &out.deliveries {
            assert!(d.delay.is_some());
            // What went out is a decodable frame message.
            match RtmpMessage::decode(d.wire.clone()).unwrap() {
                RtmpMessage::Frame(f) => assert_eq!(f.meta.sequence, 0),
                other => panic!("pushed {other:?}"),
            }
        }
        assert_eq!(s.work.frame_pushes, 5);
        assert!(s.work.bytes_pushed > 0);
    }

    #[test]
    fn unsubscribe_stops_deliveries() {
        let mut s = publishing_server();
        let mut r = rng();
        s.subscribe(B, UserId(1), viewer_link()).unwrap();
        s.subscribe(B, UserId(2), viewer_link()).unwrap();
        s.unsubscribe(B, UserId(1));
        let out = s
            .ingest_frame(SimTime::ZERO, B, frame_wire(0), &mut r)
            .unwrap();
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.deliveries[0].viewer, UserId(2));
    }

    #[test]
    fn chunks_reach_origin_store() {
        let mut s = publishing_server();
        let mut r = rng();
        let mut completed = 0;
        for i in 0..200u64 {
            let t = SimTime::from_millis(i * 40);
            let out = s.ingest_frame(t, B, frame_wire(i), &mut r).unwrap();
            if out.completed_chunk.is_some() {
                completed += 1;
            }
        }
        assert_eq!(completed, 2);
        assert_eq!(s.origin_chunks(B).len(), 2);
        assert_eq!(s.work.chunks_built, 2);
        assert_eq!(s.origin_chunks(B)[0].chunk.frames.len(), 75);
    }

    #[test]
    fn end_broadcast_flushes_and_forgets() {
        let mut s = publishing_server();
        let mut r = rng();
        for i in 0..10u64 {
            s.ingest_frame(SimTime::from_millis(i * 40), B, frame_wire(i), &mut r)
                .unwrap();
        }
        let last = s.end_broadcast(SimTime::from_secs(1), B).unwrap();
        assert_eq!(last.chunk.frames.len(), 10);
        assert!(!s.is_publishing(B));
        assert_eq!(
            s.ingest_frame(SimTime::from_secs(2), B, frame_wire(11), &mut r)
                .unwrap_err(),
            IngestError::UnknownBroadcast
        );
    }

    #[test]
    fn verifier_rejects_tampered_frames() {
        let mut s = publishing_server();
        let mut r = rng();
        // Accept only frames whose payload starts with 7 (our test frames).
        s.set_verifier(Some(Box::new(|f: &VideoFrame| {
            f.payload.first() == Some(&7)
        })));
        assert!(s
            .ingest_frame(SimTime::ZERO, B, frame_wire(0), &mut r)
            .is_ok());
        let mut evil = frame(1);
        evil.payload = Bytes::from_static(b"EVIL");
        let err = s
            .ingest_frame(
                SimTime::from_millis(40),
                B,
                RtmpMessage::Frame(evil).encode(),
                &mut r,
            )
            .unwrap_err();
        assert_eq!(err, IngestError::VerificationFailed);
        assert_eq!(s.work.frames_rejected, 1);
        assert_eq!(s.work.frames_in, 1);
    }

    #[test]
    fn work_counters_scale_with_audience() {
        // The Fig 14 mechanism in miniature: per-frame work is linear in
        // subscribers.
        let mut r = rng();
        let mut costs = Vec::new();
        for audience in [1usize, 10, 50] {
            let mut s = publishing_server();
            for u in 0..audience {
                s.subscribe(B, UserId(u as u64), viewer_link()).unwrap();
            }
            for i in 0..25u64 {
                s.ingest_frame(SimTime::from_millis(i * 40), B, frame_wire(i), &mut r)
                    .unwrap();
            }
            costs.push(s.work.frame_pushes);
        }
        assert_eq!(costs, vec![25, 250, 1250]);
    }
}
