//! Frame-to-chunk assembly on the ingest server.
//!
//! Wowza groups consecutive frames into chunks of a target duration
//! (~3 s → ~75 frames of 40 ms) for HLS delivery. The chunking delay a
//! frame suffers equals the time until its chunk closes — which is why
//! chunk duration appears verbatim as the "Chunking" bar of Fig 11 and why
//! chunk size is the paper's primary scalability/latency tradeoff knob.

use std::ops::Deref;
use std::sync::Arc;

use bytes::Bytes;
use livescope_proto::hls::Chunk;
use livescope_proto::rtmp::VideoFrame;
use livescope_sim::{SimDuration, SimTime};

/// Assembles frames into fixed-duration chunks for one broadcast.
#[derive(Debug)]
pub struct Chunker {
    target: SimDuration,
    next_seq: u64,
    /// Frames of the open chunk plus their arrival instants.
    pending: Vec<VideoFrame>,
    open_since: Option<SimTime>,
    open_start_ts_us: u64,
}

/// A chunk plus the server-side instant it became ready.
///
/// One allocation seen two ways: `encoded` is the wire form, written once
/// when the chunk closed, straight into an exactly-sized (~190 KB) shared
/// block; `chunk` is that block decoded, so every frame payload and
/// signature in it is a view of `encoded`, not a copy. Cloning a
/// `ReadyChunk` bumps two reference counts, and every edge cache and
/// client download shares the same block — which lives until the last
/// view of it, a single retained frame payload included, is dropped.
#[derive(Clone, Debug)]
pub struct ReadyChunk {
    pub chunk: Arc<Chunk>,
    /// Wire encoding of `chunk`, produced once at seal time.
    pub encoded: Bytes,
    /// When the chunk closed on the ingest server.
    pub ready_at: SimTime,
}

impl Deref for ReadyChunk {
    type Target = Chunk;

    fn deref(&self) -> &Chunk {
        &self.chunk
    }
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
        let ingested = Chunk {
            seq: self.next_seq,
            start_ts_us: self.open_start_ts_us,
            duration_us: now.saturating_since(opened).as_micros(),
            frames: std::mem::take(&mut self.pending),
        };
        self.next_seq += 1;
        let encoded = ingested.encode();
        // The ingest-side payload blocks are released here: what is
        // published is the encoded block read back, whose frames view it.
        drop(ingested);
        let chunk = Chunk::decode(encoded.clone()).expect("a chunk's own encoding decodes");
        ReadyChunk {
            chunk: Arc::new(chunk),
            encoded,
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
    fn seal_encodes_once_and_clones_share_the_allocation() {
        let mut ch = Chunker::new(SimDuration::from_secs(3));
        let chunks = feed(&mut ch, 80);
        let rc = &chunks[0];
        assert_eq!(rc.encoded, rc.chunk.encode(), "wire form matches");
        let clone = rc.clone();
        assert!(Arc::ptr_eq(&clone.chunk, &rc.chunk), "chunk is shared");
        assert_eq!(
            clone.encoded.as_ref().as_ptr(),
            rc.encoded.as_ref().as_ptr(),
            "encoded bytes are shared, not copied"
        );
    }

    #[test]
    fn sealed_frames_are_views_of_the_encoded_block() {
        let mut ch = Chunker::new(SimDuration::from_secs(3));
        for i in 0..76u64 {
            let mut f = frame(i);
            if i % 2 == 0 {
                f.meta.signature = Some(Bytes::from(vec![i as u8; 32]));
            }
            let t = SimTime::from_millis(i * FRAME_INTERVAL_MS);
            if let Some(rc) = ch.push(t, f) {
                let block = rc.encoded.as_ptr_range();
                assert_eq!(rc.chunk.frames.len(), 75);
                for f in &rc.chunk.frames {
                    assert!(block.contains(&f.payload.as_ptr()), "payload copied");
                    if let Some(sig) = &f.meta.signature {
                        assert!(block.contains(&sig.as_ptr()), "signature copied");
                    }
                }
                return;
            }
        }
        panic!("no chunk sealed");
    }

    #[test]
    fn seal_releases_the_ingested_payload_blocks() {
        // A caller that kept a clone of what it ingested owns that block
        // alone once the chunk seals: the chunker keeps no second copy of
        // the video, and the clone pins 8 bytes, not the chunk.
        let mut ch = Chunker::new(SimDuration::from_secs(3));
        let first = frame(0);
        let held = first.payload.clone();
        assert!(ch.push(SimTime::ZERO, first).is_none());
        assert!(!held.is_unique(), "pending frame shares the block");
        let rc = ch.flush(SimTime::from_secs(1)).expect("one frame pending");
        assert!(held.is_unique());
        assert_eq!(rc.chunk.frames[0].payload, held);
    }
}
