//! The HLS-shaped chunked delivery format.
//!
//! Wowza assembles ~75 consecutive 40 ms frames into a ~3 s **chunk**
//! (§5.2: >85.9% of HLS broadcasts used 3 s chunks), appends it to a text
//! **chunklist**, and Fastly caches both. Viewers poll the chunklist every
//! 2–2.8 s and fetch chunks they have not seen. This module provides the
//! binary chunk container and the m3u8-flavoured chunklist codec.

use std::fmt::Write as _;

use bytes::{BufMut, Bytes};

use crate::rtmp::VideoFrame;
use crate::wire::{ensure, expect_eof, get_u16, get_u32, get_u64, WireError};

/// Magic prefix of a chunk container ("LSC1").
pub const CHUNK_MAGIC: u32 = 0x4C53_4331;
/// Bytes before a chunk's frames: magic, seq, start, duration, count.
const CHUNK_HEADER_LEN: usize = 4 + 8 + 8 + 8 + 2;
/// Default chunk duration used by Periscope and Facebook Live (seconds).
pub const DEFAULT_CHUNK_SECS: f64 = 3.0;
/// Meerkat's observed chunk duration (seconds).
pub const MEERKAT_CHUNK_SECS: f64 = 3.6;
/// Apple's VoD HLS chunk duration, the scalability-end anchor (seconds).
pub const VOD_CHUNK_SECS: f64 = 10.0;
/// Upper bound on frames per chunk accepted by the decoder (10 s of 40 ms
/// frames, with headroom).
pub const MAX_FRAMES_PER_CHUNK: usize = 1024;
/// Smallest frame body on the wire: seq, timestamp, flags, payload length.
const MIN_FRAME_BODY_LEN: usize = 8 + 8 + 1 + 4;

/// A group of consecutive frames shipped as one HLS media segment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Chunk {
    /// Media sequence number (monotonic per broadcast).
    pub seq: u64,
    /// Capture timestamp of the first frame, µs (broadcaster clock).
    pub start_ts_us: u64,
    /// Nominal duration covered, µs.
    pub duration_us: u64,
    /// The frames, in capture order.
    pub frames: Vec<VideoFrame>,
}

impl Chunk {
    /// Total payload bytes across frames (the "video bytes" of the chunk).
    pub fn payload_bytes(&self) -> usize {
        self.frames.iter().map(|f| f.payload.len()).sum()
    }

    /// Encodes the chunk container: sized exactly and written in the
    /// block it is shared from, so [`Chunk::decode`] of the result yields
    /// frames whose payloads are views of that one block.
    pub fn encode(&self) -> Bytes {
        assert!(
            self.frames.len() <= MAX_FRAMES_PER_CHUNK,
            "chunk has too many frames to encode"
        );
        let body: usize = self.frames.iter().map(VideoFrame::encoded_len).sum();
        Bytes::build_exact(CHUNK_HEADER_LEN + body, |out| {
            out.put_u32(CHUNK_MAGIC);
            out.put_u64(self.seq);
            out.put_u64(self.start_ts_us);
            out.put_u64(self.duration_us);
            out.put_u16(self.frames.len() as u16);
            for frame in &self.frames {
                frame.encode_body(out);
            }
        })
    }

    /// Decodes a chunk container, rejecting trailing bytes.
    pub fn decode(mut buf: Bytes) -> Result<Self, WireError> {
        let magic = get_u32(&mut buf)?;
        if magic != CHUNK_MAGIC {
            return Err(WireError::BadMagic {
                expected: CHUNK_MAGIC,
                found: magic,
            });
        }
        let seq = get_u64(&mut buf)?;
        let start_ts_us = get_u64(&mut buf)?;
        let duration_us = get_u64(&mut buf)?;
        let n = get_u16(&mut buf)? as usize;
        if n > MAX_FRAMES_PER_CHUNK {
            return Err(WireError::OversizedField { len: n });
        }
        ensure(&buf, n * MIN_FRAME_BODY_LEN)?;
        let mut frames = Vec::with_capacity(n);
        for _ in 0..n {
            frames.push(VideoFrame::decode_body(&mut buf)?);
        }
        expect_eof(&buf)?;
        Ok(Chunk {
            seq,
            start_ts_us,
            duration_us,
            frames,
        })
    }
}

/// One entry of a chunklist.
#[derive(Clone, PartialEq, Debug)]
pub struct ChunkEntry {
    /// Media sequence of the chunk.
    pub seq: u64,
    /// Duration in seconds, as advertised to players.
    pub duration_s: f64,
    /// Relative URI of the chunk resource.
    pub uri: String,
}

/// The m3u8-flavoured playlist that HLS viewers poll.
///
/// ```text
/// #EXTM3U
/// #EXT-X-VERSION:3
/// #EXT-X-TARGETDURATION:3
/// #EXT-X-MEDIA-SEQUENCE:17
/// #EXTINF:3.000,
/// chunk_17.lsc
/// #EXTINF:3.000,
/// chunk_18.lsc
/// ```
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ChunkList {
    /// Max chunk duration advertised, whole seconds (rounded up).
    pub target_duration_s: u64,
    /// Sequence of the first listed chunk.
    pub media_sequence: u64,
    pub entries: Vec<ChunkEntry>,
}

impl ChunkList {
    /// Builds a playlist over a window of chunk metadata. `window` bounds
    /// how many trailing chunks are advertised (live HLS keeps a sliding
    /// window, not the whole history).
    pub fn from_chunks<'a>(chunks: impl IntoIterator<Item = &'a Chunk>, window: usize) -> Self {
        let mut entries: Vec<ChunkEntry> = chunks
            .into_iter()
            .map(|c| ChunkEntry {
                seq: c.seq,
                duration_s: c.duration_us as f64 / 1e6,
                uri: format!("chunk_{}.lsc", c.seq),
            })
            .collect();
        entries.sort_by_key(|e| e.seq);
        if entries.len() > window {
            entries.drain(..entries.len() - window);
        }
        let target = entries
            .iter()
            .map(|e| e.duration_s.ceil() as u64)
            .max()
            .unwrap_or(DEFAULT_CHUNK_SECS as u64);
        ChunkList {
            target_duration_s: target,
            media_sequence: entries.first().map_or(0, |e| e.seq),
            entries,
        }
    }

    /// Highest chunk sequence listed, if any. Pollers compare this against
    /// what they have already fetched.
    pub fn latest_seq(&self) -> Option<u64> {
        self.entries.last().map(|e| e.seq)
    }

    /// Renders the playlist text.
    pub fn serialize(&self) -> String {
        let mut s = String::with_capacity(64 + self.entries.len() * 32);
        // Writing to a `String` cannot fail.
        let _ = write!(
            s,
            "#EXTM3U\n#EXT-X-VERSION:3\n#EXT-X-TARGETDURATION:{}\n#EXT-X-MEDIA-SEQUENCE:{}\n",
            self.target_duration_s, self.media_sequence
        );
        for e in &self.entries {
            let _ = write!(s, "#EXTINF:{:.3},\n{}\n", e.duration_s, e.uri);
        }
        s
    }

    /// Parses playlist text. Strict about the header, tolerant about
    /// unknown `#`-comment lines (like real players), and strict about what
    /// [`ChunkList::from_chunks`] guarantees: every duration finite and
    /// non-negative, chunk seqs strictly ascending, and `MEDIA-SEQUENCE`
    /// the first entry's seq.
    pub fn parse(text: &str) -> Result<Self, WireError> {
        let mut lines = text.lines();
        if lines.next() != Some("#EXTM3U") {
            return Err(WireError::Invalid("missing #EXTM3U header"));
        }
        let mut target_duration_s = 0;
        let mut media_sequence = 0;
        let mut entries = Vec::new();
        let mut pending_duration: Option<f64> = None;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(v) = line.strip_prefix("#EXT-X-TARGETDURATION:") {
                target_duration_s = v
                    .parse()
                    .map_err(|_| WireError::Invalid("bad TARGETDURATION"))?;
            } else if let Some(v) = line.strip_prefix("#EXT-X-MEDIA-SEQUENCE:") {
                media_sequence = v
                    .parse()
                    .map_err(|_| WireError::Invalid("bad MEDIA-SEQUENCE"))?;
            } else if let Some(v) = line.strip_prefix("#EXTINF:") {
                let dur = v
                    .trim_end_matches(',')
                    .parse::<f64>()
                    .ok()
                    .filter(|d| d.is_finite() && *d >= 0.0)
                    .ok_or(WireError::Invalid("bad EXTINF duration"))?;
                pending_duration = Some(dur);
            } else if line.starts_with('#') {
                continue; // unknown tag or comment
            } else {
                let duration_s = pending_duration
                    .take()
                    .ok_or(WireError::Invalid("URI without EXTINF"))?;
                let seq = line
                    .strip_prefix("chunk_")
                    .and_then(|s| s.strip_suffix(".lsc"))
                    .and_then(|s| s.parse().ok())
                    .ok_or(WireError::Invalid("unparseable chunk URI"))?;
                if entries
                    .last()
                    .is_some_and(|prev: &ChunkEntry| prev.seq >= seq)
                {
                    return Err(WireError::Invalid("chunk seqs not ascending"));
                }
                entries.push(ChunkEntry {
                    seq,
                    duration_s,
                    uri: line.to_string(),
                });
            }
        }
        if pending_duration.is_some() {
            return Err(WireError::Invalid("EXTINF without URI"));
        }
        if entries
            .first()
            .is_some_and(|first| first.seq != media_sequence)
        {
            return Err(WireError::Invalid(
                "MEDIA-SEQUENCE is not the first chunk's seq",
            ));
        }
        Ok(ChunkList {
            target_duration_s,
            media_sequence,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn frame(seq: u64, ts: u64) -> VideoFrame {
        VideoFrame::new(
            seq,
            ts,
            seq.is_multiple_of(75),
            Bytes::from(vec![seq as u8; 16]),
        )
    }

    fn chunk(seq: u64, nframes: u64) -> Chunk {
        let start = seq * 3_000_000;
        Chunk {
            seq,
            start_ts_us: start,
            duration_us: nframes * 40_000,
            frames: (0..nframes)
                .map(|i| frame(seq * 75 + i, start + i * 40_000))
                .collect(),
        }
    }

    #[test]
    fn chunk_roundtrips() {
        let c = chunk(17, 75);
        let decoded = Chunk::decode(c.encode()).unwrap();
        assert_eq!(decoded, c);
        assert_eq!(decoded.frames.len(), 75);
    }

    #[test]
    fn empty_chunk_roundtrips() {
        let c = Chunk {
            seq: 0,
            start_ts_us: 0,
            duration_us: 0,
            frames: vec![],
        };
        assert_eq!(Chunk::decode(c.encode()).unwrap(), c);
    }

    #[test]
    fn chunk_payload_bytes_sums_frames() {
        let c = chunk(1, 10);
        assert_eq!(c.payload_bytes(), 160);
    }

    #[test]
    fn chunk_rejects_bad_magic_and_truncation() {
        let wire = chunk(3, 5).encode();
        let mut bad = BytesMut::from(&wire[..]);
        bad[0] ^= 0x55;
        assert!(matches!(
            Chunk::decode(bad.freeze()),
            Err(WireError::BadMagic { .. })
        ));
        assert!(Chunk::decode(wire.slice(..wire.len() - 1)).is_err());
    }

    #[test]
    fn chunk_rejects_absurd_frame_count() {
        let mut out = BytesMut::new();
        out.put_u32(CHUNK_MAGIC);
        out.put_u64(0);
        out.put_u64(0);
        out.put_u64(0);
        out.put_u16(u16::MAX);
        assert!(matches!(
            Chunk::decode(out.freeze()),
            Err(WireError::OversizedField { .. })
        ));
    }

    #[test]
    fn frame_count_is_checked_before_allocating() {
        let mut out = BytesMut::new();
        out.put_u32(CHUNK_MAGIC);
        out.put_u64(0);
        out.put_u64(0);
        out.put_u64(0);
        out.put_u16(MAX_FRAMES_PER_CHUNK as u16);
        assert_eq!(
            Chunk::decode(out.freeze()),
            Err(WireError::Truncated {
                needed: MAX_FRAMES_PER_CHUNK * 21,
                available: 0
            })
        );
    }

    #[test]
    fn chunk_wire_format_and_exact_size_are_pinned() {
        let mut signed = VideoFrame::new(2, 40_000, false, Bytes::from_static(b"bb"));
        signed.meta.signature = Some(Bytes::from_static(&[0xEE; 3]));
        let c = Chunk {
            seq: 7,
            start_ts_us: 21_000_000,
            duration_us: 80_000,
            frames: vec![
                VideoFrame::new(1, 0, true, Bytes::from_static(b"a")),
                signed,
            ],
        };
        let wire = c.encode();
        let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
        // magic | seq | start | duration | count | frame bodies.
        assert_eq!(
            hex,
            "4c534331_0000000000000007_0000000001406f40_0000000000013880_0002\
             _0000000000000001_0000000000000000_01_00000001_61\
             _0000000000000002_0000000000009c40_02_0003_eeeeee_00000002_6262"
                .replace('_', "")
        );
        let bodies: usize = c.frames.iter().map(VideoFrame::encoded_len).sum();
        assert_eq!(wire.len(), 30 + bodies);
        assert_eq!(chunk(17, 75).encode().len(), 30 + 75 * (21 + 16));
    }

    #[test]
    fn full_chunk_of_empty_frames_roundtrips() {
        let c = Chunk {
            seq: 1,
            start_ts_us: 0,
            duration_us: 0,
            frames: (0..MAX_FRAMES_PER_CHUNK as u64)
                .map(|i| VideoFrame::new(i, i, false, Bytes::new()))
                .collect(),
        };
        assert_eq!(Chunk::decode(c.encode()).unwrap(), c);
    }

    #[test]
    fn chunklist_text_is_pinned() {
        let chunks: Vec<Chunk> = (17..20).map(|s| chunk(s, 75)).collect();
        assert_eq!(
            ChunkList::from_chunks(&chunks, 10).serialize(),
            "#EXTM3U\n#EXT-X-VERSION:3\n#EXT-X-TARGETDURATION:3\n\
             #EXT-X-MEDIA-SEQUENCE:17\n\
             #EXTINF:3.000,\nchunk_17.lsc\n\
             #EXTINF:3.000,\nchunk_18.lsc\n\
             #EXTINF:3.000,\nchunk_19.lsc\n"
        );
    }

    #[test]
    fn chunklist_roundtrips() {
        let chunks: Vec<Chunk> = (10..15).map(|s| chunk(s, 75)).collect();
        let list = ChunkList::from_chunks(&chunks, 10);
        let text = list.serialize();
        let parsed = ChunkList::parse(&text).unwrap();
        assert_eq!(parsed, list);
        assert_eq!(parsed.latest_seq(), Some(14));
        assert_eq!(parsed.media_sequence, 10);
    }

    #[test]
    fn chunklist_window_keeps_latest() {
        let chunks: Vec<Chunk> = (0..20).map(|s| chunk(s, 75)).collect();
        let list = ChunkList::from_chunks(&chunks, 5);
        assert_eq!(list.entries.len(), 5);
        assert_eq!(list.media_sequence, 15);
        assert_eq!(list.latest_seq(), Some(19));
    }

    #[test]
    fn chunklist_parse_accepts_unknown_tags() {
        let text = "#EXTM3U\n#EXT-X-VERSION:3\n#EXT-X-SOMETHING:new\n\
                    #EXT-X-TARGETDURATION:3\n#EXT-X-MEDIA-SEQUENCE:2\n\
                    #EXTINF:3.000,\nchunk_2.lsc\n";
        let list = ChunkList::parse(text).unwrap();
        assert_eq!(list.entries.len(), 1);
        assert_eq!(list.entries[0].seq, 2);
    }

    #[test]
    fn chunklist_parse_rejects_malformed_inputs() {
        assert!(ChunkList::parse("not a playlist").is_err());
        assert!(ChunkList::parse("#EXTM3U\nchunk_1.lsc\n").is_err()); // URI w/o EXTINF
        assert!(ChunkList::parse("#EXTM3U\n#EXTINF:3.0,\n").is_err()); // EXTINF w/o URI
        assert!(ChunkList::parse("#EXTM3U\n#EXTINF:xyz,\nchunk_1.lsc\n").is_err());
        assert!(ChunkList::parse("#EXTM3U\n#EXTINF:3.0,\nfoo_1.bar\n").is_err());
    }

    #[test]
    fn chunklist_parse_rejects_what_from_chunks_never_emits() {
        let list = |seq_tag: u64, body: &str| {
            ChunkList::parse(&format!(
                "#EXTM3U\n#EXT-X-TARGETDURATION:3\n#EXT-X-MEDIA-SEQUENCE:{seq_tag}\n{body}"
            ))
        };
        let invalid = |text: Result<ChunkList, WireError>| {
            assert!(matches!(text, Err(WireError::Invalid(_))), "{text:?}")
        };
        // Durations that are not a finite, non-negative number of seconds
        // (`1e400` overflows to infinity).
        for bad in ["NaN", "nan", "inf", "-inf", "infinity", "-3.0", "1e400"] {
            invalid(list(4, &format!("#EXTINF:{bad},\nchunk_4.lsc\n")));
        }
        // A MEDIA-SEQUENCE that is not the first entry's seq, either way
        // round and with the tag missing (it defaults to 0).
        invalid(list(3, "#EXTINF:3.000,\nchunk_4.lsc\n"));
        invalid(list(5, "#EXTINF:3.000,\nchunk_4.lsc\n"));
        invalid(ChunkList::parse("#EXTM3U\n#EXTINF:3.000,\nchunk_4.lsc\n"));
        // Descending and repeated seqs.
        invalid(list(
            5,
            "#EXTINF:3.000,\nchunk_5.lsc\n#EXTINF:3.000,\nchunk_4.lsc\n",
        ));
        invalid(list(
            5,
            "#EXTINF:3.000,\nchunk_5.lsc\n#EXTINF:3.000,\nchunk_5.lsc\n",
        ));
        // The boundaries of each rule still parse: zero and tiny
        // durations, gaps between ascending seqs, and any MEDIA-SEQUENCE
        // on an empty list.
        let ok = list(
            4,
            "#EXTINF:0.000,\nchunk_4.lsc\n#EXTINF:1e-9,\nchunk_9.lsc\n",
        )
        .unwrap();
        assert_eq!(ok.entries.iter().map(|e| e.seq).collect::<Vec<_>>(), [4, 9]);
        assert!(list(7, "").unwrap().entries.is_empty());
    }

    #[test]
    fn empty_chunklist_serializes_and_parses() {
        let list = ChunkList::from_chunks(std::iter::empty(), 10);
        let parsed = ChunkList::parse(&list.serialize()).unwrap();
        assert_eq!(parsed.entries.len(), 0);
        assert_eq!(parsed.latest_seq(), None);
    }

    #[test]
    fn default_chunk_constants_match_paper() {
        assert_eq!(DEFAULT_CHUNK_SECS, 3.0);
        assert_eq!(MEERKAT_CHUNK_SECS, 3.6);
        assert_eq!(VOD_CHUNK_SECS, 10.0);
    }
}
