//! Frame-to-chunk assembly on the ingest server.
//!
//! Wowza groups consecutive frames into chunks of a target duration
//! (~3 s → ~75 frames of 40 ms) for HLS delivery. The chunking delay a
//! frame suffers equals the time until its chunk closes — which is why
//! chunk duration appears verbatim as the "Chunking" bar of Fig 11 and why
//! chunk size is the paper's primary scalability/latency tradeoff knob.

use std::sync::Arc;

use livescope_proto::hls::Chunk;
use livescope_proto::rtmp::VideoFrame;
use livescope_sim::{SimDuration, SimTime};

/// Assembles frames into fixed-duration chunks for one broadcast. Sealing
/// moves the open chunk's frames, payloads untouched, into the published
/// [`ReadyChunk`], and the next chunk reserves as many as the last held.
#[derive(Debug)]
pub struct Chunker {
    target: SimDuration,
    next_seq: u64,
    /// Frames of the open chunk, in arrival order.
    pending: Vec<VideoFrame>,
    open_since: Option<SimTime>,
    open_start_ts_us: u64,
}

/// A chunk plus the server-side instant it became ready.
///
/// `chunk` holds the very frames the ingest server received: sealing
/// moves them into the `Arc` and copies no payload, so every payload is
/// still the block its frame arrived in. Cloning a `ReadyChunk` bumps one
/// reference count, and every edge cache and client download shares the
/// same `Arc<Chunk>`. Nothing downstream reads the container bytes, only
/// their size, so the wire form is never built: `wire_len` is what
/// [`Chunk::encode`] would produce, and what an edge bills per download.
#[derive(Clone, Debug)]
pub struct ReadyChunk {
    pub chunk: Arc<Chunk>,
    /// `chunk.encoded_len()`, taken once at seal time.
    pub wire_len: usize,
    /// When the chunk closed on the ingest server.
    pub ready_at: SimTime,
}

impl Chunker {
    /// A chunker with the given target chunk duration.
    ///
    /// # Panics
    /// Panics on zero duration — a zero-length chunk never closes time.
    pub fn new(target: SimDuration) -> Self {
        assert!(!target.is_zero(), "chunk duration must be positive");
        Chunker {
            target,
            next_seq: 0,
            pending: Vec::new(),
            open_since: None,
            open_start_ts_us: 0,
        }
    }

    /// Target chunk duration.
    pub fn target(&self) -> SimDuration {
        self.target
    }

    /// Frames waiting in the open chunk.
    pub fn pending_frames(&self) -> usize {
        self.pending.len()
    }

    /// Feeds one frame arriving at `now`; returns the chunk this frame
    /// closed, if any.
    ///
    /// A chunk closes when the wall-clock span since it opened reaches the
    /// target duration. Closing on arrival (not on a timer) matches a
    /// server that finalizes a segment when the first frame beyond its
    /// boundary shows up.
    pub fn push(&mut self, now: SimTime, frame: VideoFrame) -> Option<ReadyChunk> {
        match self.open_since {
            None => {
                self.open_since = Some(now);
                self.open_start_ts_us = frame.meta.capture_ts_us;
                self.pending.push(frame);
                None
            }
            Some(opened) => {
                if now.saturating_since(opened) >= self.target {
                    let ready = self.seal(opened, now);
                    self.open_since = Some(now);
                    self.open_start_ts_us = frame.meta.capture_ts_us;
                    self.pending.push(frame);
                    Some(ready)
                } else {
                    self.pending.push(frame);
                    None
                }
            }
        }
    }

    /// Closes the open chunk regardless of fill (end of broadcast).
    pub fn flush(&mut self, now: SimTime) -> Option<ReadyChunk> {
        let opened = self.open_since.take()?;
        if self.pending.is_empty() {
            return None;
        }
        Some(self.seal(opened, now))
    }

    fn seal(&mut self, opened: SimTime, now: SimTime) -> ReadyChunk {
        let held = self.pending.len();
        let chunk = Chunk {
            seq: self.next_seq,
            start_ts_us: self.open_start_ts_us,
            duration_us: now.saturating_since(opened).as_micros(),
            frames: std::mem::replace(&mut self.pending, Vec::with_capacity(held)),
        };
        self.next_seq += 1;
        ReadyChunk {
            wire_len: chunk.encoded_len(),
            chunk: Arc::new(chunk),
            ready_at: now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use livescope_proto::rtmp::FRAME_INTERVAL_MS;

    fn frame(seq: u64) -> VideoFrame {
        VideoFrame::new(
            seq,
            seq * FRAME_INTERVAL_MS * 1000,
            seq.is_multiple_of(75),
            Bytes::from(vec![0u8; 8]),
        )
    }

    fn feed(chunker: &mut Chunker, n: u64) -> Vec<ReadyChunk> {
        let mut out = Vec::new();
        for i in 0..n {
            let t = SimTime::from_millis(i * FRAME_INTERVAL_MS);
            if let Some(c) = chunker.push(t, frame(i)) {
                out.push(c);
            }
        }
        out
    }

    #[test]
    fn three_second_chunks_hold_75_frames() {
        let mut ch = Chunker::new(SimDuration::from_secs(3));
        let chunks = feed(&mut ch, 200);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].chunk.frames.len(), 75);
        assert_eq!(chunks[1].chunk.frames.len(), 75);
        assert_eq!(ch.pending_frames(), 50);
        // The open chunk reserved what the last one held.
        assert_eq!(ch.pending.capacity(), 75);
    }

    #[test]
    fn sequences_are_monotonic_and_frames_preserved() {
        let mut ch = Chunker::new(SimDuration::from_secs(1));
        let mut chunks = feed(&mut ch, 100);
        if let Some(last) = ch.flush(SimTime::from_secs(10)) {
            chunks.push(last);
        }
        let mut frame_seq = 0u64;
        for (expected, rc) in chunks.iter().enumerate() {
            assert_eq!(rc.chunk.seq, expected as u64);
            for f in &rc.chunk.frames {
                assert_eq!(f.meta.sequence, frame_seq, "frame lost or reordered");
                frame_seq += 1;
            }
        }
        assert_eq!(frame_seq, 100, "all frames must come out");
    }

    #[test]
    fn ready_time_is_open_plus_target() {
        let mut ch = Chunker::new(SimDuration::from_secs(3));
        let chunks = feed(&mut ch, 80);
        assert_eq!(chunks.len(), 1);
        // The 75th frame (t=3.0s) closes the chunk opened at t=0.
        assert_eq!(chunks[0].ready_at, SimTime::from_secs(3));
        assert_eq!(chunks[0].chunk.duration_us, 3_000_000);
    }

    #[test]
    fn flush_emits_partial_chunk() {
        let mut ch = Chunker::new(SimDuration::from_secs(3));
        feed(&mut ch, 10);
        let last = ch.flush(SimTime::from_millis(400)).unwrap();
        assert_eq!(last.chunk.frames.len(), 10);
        assert!(ch.flush(SimTime::from_secs(1)).is_none(), "double flush");
        assert_eq!(ch.pending_frames(), 0);
    }

    #[test]
    fn flush_on_empty_is_none() {
        let mut ch = Chunker::new(SimDuration::from_secs(3));
        assert!(ch.flush(SimTime::ZERO).is_none());
    }

    #[test]
    fn start_ts_tracks_first_frame_of_each_chunk() {
        let mut ch = Chunker::new(SimDuration::from_secs(3));
        let chunks = feed(&mut ch, 160);
        assert_eq!(chunks[0].chunk.start_ts_us, 0);
        assert_eq!(chunks[1].chunk.start_ts_us, 75 * 40_000);
    }

    #[test]
    fn irregular_arrivals_still_close_chunks() {
        // A bursty uplink: nothing for 5 s, then a burst — the burst's
        // first frame closes the stale chunk.
        let mut ch = Chunker::new(SimDuration::from_secs(3));
        assert!(ch.push(SimTime::ZERO, frame(0)).is_none());
        let closed = ch.push(SimTime::from_secs(5), frame(1));
        let rc = closed.expect("stale chunk must close");
        assert_eq!(rc.chunk.frames.len(), 1);
        assert_eq!(rc.chunk.duration_us, 5_000_000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_duration_panics() {
        Chunker::new(SimDuration::ZERO);
    }

    #[test]
    fn seal_publishes_the_ingested_frames() {
        // Sealing copies no payload: a caller that kept a clone of what it
        // ingested shares that block with the chunk. The container is only
        // sized, never built.
        let mut ch = Chunker::new(SimDuration::from_secs(3));
        let mut first = frame(0);
        first.meta.signature = Some(Bytes::from(vec![9u8; 32]));
        let held = first.payload.clone();
        assert!(ch.push(SimTime::ZERO, first).is_none());
        assert!(ch.push(SimTime::from_millis(40), frame(1)).is_none());
        let rc = ch.flush(SimTime::from_secs(1)).expect("two frames pending");
        assert_eq!(rc.chunk.frames[0].payload.as_ptr(), held.as_ptr());
        assert!(!held.is_unique(), "the sealed chunk shares the block");
        assert_eq!(rc.wire_len, rc.chunk.encode().len());
        let clone = rc.clone();
        assert!(Arc::ptr_eq(&clone.chunk, &rc.chunk), "chunk is shared");
    }
}
