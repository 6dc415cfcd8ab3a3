//! Meerkat's ingest path (§4.1):
//!
//! > "In Meerkat, each broadcaster uses a single HTTP POST connection to
//! > continuously upload live video to Meerkat server (hosted by Amazon
//! > EC2), while viewers download video chucks from the server using
//! > HLS."
//!
//! The architectural consequences, all modelled here:
//!
//! * **no RTMP distribution at all** — there is no low-latency cohort;
//!   every viewer, including the very first, rides the chunk path;
//! * **chunked upload**: the POST body is consumed in segments, so the
//!   server only sees data at segment boundaries (we reuse the 40 ms
//!   frame stream but account it as one connection, not messages);
//! * **3.6 s chunks** (the paper's measured Meerkat chunk duration)
//!   instead of Periscope's 3 s — slightly worse chunking delay.

use bytes::Bytes;

use livescope_net::datacenters::DatacenterId;
use livescope_proto::hls::MEERKAT_CHUNK_SECS;
use livescope_proto::rtmp::VideoFrame;
use livescope_sim::{SimDuration, SimTime};

use crate::chunker::{Chunker, ReadyChunk};
use crate::fastly::{FastlyPop, PollResponse};
use crate::ids::BroadcastId;

/// Meerkat's single-server ingest + edge (one EC2 site did both jobs).
pub struct MeerkatServer {
    dc: DatacenterId,
    sessions: std::collections::BTreeMap<BroadcastId, MeerkatSession>,
    edge: FastlyPop,
    /// Upload bytes consumed (one POST per broadcast — connection count
    /// stays 1 no matter how long the stream runs).
    pub upload_bytes: u64,
}

struct MeerkatSession {
    chunker: Chunker,
    origin: Vec<ReadyChunk>,
}

impl MeerkatServer {
    /// A server at `dc` with the paper's 3.6 s Meerkat chunks.
    pub fn new(dc: DatacenterId) -> Self {
        MeerkatServer {
            dc,
            sessions: std::collections::BTreeMap::new(),
            edge: FastlyPop::new(dc),
            upload_bytes: 0,
        }
    }

    /// The hosting datacenter.
    pub fn datacenter(&self) -> DatacenterId {
        self.dc
    }

    /// Opens a broadcast's upload POST.
    pub fn start_broadcast(&mut self, broadcast: BroadcastId) {
        self.sessions.insert(
            broadcast,
            MeerkatSession {
                chunker: Chunker::new(SimDuration::from_secs_f64(MEERKAT_CHUNK_SECS)),
                origin: Vec::new(),
            },
        );
    }

    /// Consumes one segment of the continuous upload. Returns the chunk
    /// it completed, if any.
    pub fn upload_segment(
        &mut self,
        now: SimTime,
        broadcast: BroadcastId,
        frame: VideoFrame,
    ) -> Option<ReadyChunk> {
        let session = self.sessions.get_mut(&broadcast)?;
        self.upload_bytes += frame.payload.len() as u64;
        let completed = session.chunker.push(now, frame);
        if let Some(ready) = &completed {
            session.origin.push(ready.clone());
        }
        completed
    }

    /// Viewers poll the chunklist straight off the server (no separate
    /// edge CDN in Meerkat's design — the same EC2 site serves HLS).
    pub fn poll(&mut self, now: SimTime, broadcast: BroadcastId) -> PollResponse {
        let origin = self
            .sessions
            .get(&broadcast)
            .map(|s| s.origin.as_slice())
            .unwrap_or(&[]);
        // Same-host "fetch": the chunk is already local; tiny staging
        // delay for cache insertion, regardless of batch size.
        self.edge
            .poll(now, broadcast, origin, |_: &crate::fastly::FetchPlan| {
                SimDuration::from_millis(5)
            })
    }

    /// Downloads a chunk's wire bytes.
    pub fn serve_chunk(&mut self, now: SimTime, broadcast: BroadcastId, seq: u64) -> Option<Bytes> {
        self.edge
            .serve_chunk(now, broadcast, seq)
            .map(|served| served.encoded.clone())
    }

    /// Ends a broadcast, flushing the open chunk.
    pub fn end_broadcast(&mut self, now: SimTime, broadcast: BroadcastId) -> Option<ReadyChunk> {
        let mut session = self.sessions.remove(&broadcast)?;
        let last = session.chunker.flush(now);
        self.edge.evict(broadcast);
        last
    }

    /// Edge work counters (polls, chunk serves).
    pub fn edge_work(&self) -> crate::fastly::EdgeWork {
        self.edge.work
    }
}

/// The latency floor of Meerkat's design: with no RTMP cohort, even the
/// first viewer pays chunking (3.6 s) + polling + buffering. Returns the
/// expected minimum end-to-end delay in seconds given a poll interval and
/// a pre-buffer (client parameters), for comparison against Periscope's
/// dual-path numbers.
pub fn latency_floor_s(poll_interval_s: f64, prebuffer_s: f64) -> f64 {
    MEERKAT_CHUNK_SECS + poll_interval_s / 2.0 + prebuffer_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use livescope_proto::hls::ChunkList;

    fn frame(seq: u64) -> VideoFrame {
        VideoFrame::new(
            seq,
            seq * 40_000,
            seq.is_multiple_of(50),
            Bytes::from(vec![2u8; 2_000]),
        )
    }

    const B: BroadcastId = BroadcastId(7);

    fn streamed_server(frames: u64) -> MeerkatServer {
        let mut s = MeerkatServer::new(DatacenterId(0));
        s.start_broadcast(B);
        for i in 0..frames {
            s.upload_segment(SimTime::from_millis(i * 40), B, frame(i));
        }
        s
    }

    #[test]
    fn chunks_are_3_6_seconds() {
        // 3.6 s of 40 ms frames = 90 frames per chunk.
        let s = streamed_server(200);
        let mut probe = streamed_server(200);
        let resp = probe.poll(SimTime::from_secs(10), B);
        let _ = s;
        // Only chunk 0 (ready at 3.6 s) and chunk 1 (7.2 s) exist.
        assert_eq!(resp.fetches_started, 2);
        let resp = probe.poll(SimTime::from_secs(11), B);
        assert_eq!(resp.chunklist.entries.len(), 2);
        assert!((resp.chunklist.entries[0].duration_s - 3.6).abs() < 0.05);
    }

    #[test]
    fn upload_is_one_connection_worth_of_bytes() {
        let s = streamed_server(100);
        assert_eq!(s.upload_bytes, 100 * 2_000);
    }

    #[test]
    fn viewers_download_chunks_via_the_same_host() {
        let mut s = streamed_server(200);
        s.poll(SimTime::from_secs(8), B);
        let wire = s
            .serve_chunk(SimTime::from_secs(9), B, 0)
            .expect("chunk available");
        let chunk = livescope_proto::hls::Chunk::decode(wire).unwrap();
        assert_eq!(chunk.frames.len(), 90);
        assert!(s.edge_work().chunks_served >= 1);
    }

    #[test]
    fn end_broadcast_flushes_and_evicts() {
        let mut s = streamed_server(100);
        let last = s.end_broadcast(SimTime::from_secs(4), B).unwrap();
        assert!(!last.chunk.frames.is_empty());
        let resp = s.poll(SimTime::from_secs(5), B);
        assert_eq!(resp.chunklist.entries.len(), 0);
        assert!(s.end_broadcast(SimTime::from_secs(6), B).is_none());
    }

    #[test]
    fn latency_floor_exceeds_periscope_rtmp_by_an_order() {
        // Meerkat's best case (2.8 s polls, 9 s pre-buffer like the
        // Periscope client) floors above 12 s — vs Periscope RTMP ≈1 s.
        let floor = latency_floor_s(2.8, 9.0);
        assert!(floor > 12.0, "floor {floor}");
        // Even a zero-buffer client cannot beat the chunk duration.
        assert!(latency_floor_s(0.5, 0.0) > MEERKAT_CHUNK_SECS);
    }

    #[test]
    fn chunklist_text_is_standard() {
        let mut s = streamed_server(200);
        s.poll(SimTime::from_secs(8), B);
        let resp = s.poll(SimTime::from_secs(9), B);
        let text = resp.chunklist.serialize();
        assert!(ChunkList::parse(&text).is_ok());
    }
}
