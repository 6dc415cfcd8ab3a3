//! The RTMP-shaped ingest / low-latency distribution protocol.
//!
//! Shape follows what the paper reverse-engineered (§4.1, §7.1):
//!
//! * the client keeps one persistent connection per broadcast;
//! * after a trivial handshake, the client sends a **plaintext** connect
//!   message carrying the broadcast token it got from the control plane —
//!   readable (and replayable) by anyone on-path, which is vulnerability
//!   ingredient (1);
//! * video travels as individual ~40 ms frames, pushed by the server to
//!   subscribers as soon as they arrive; frames are **unencrypted and
//!   unauthenticated**, vulnerability ingredient (2);
//! * each keyframe's metadata embeds the capture timestamp recorded by the
//!   broadcaster's device — the paper extracted its timestamp ① from this
//!   field, and so does our crawler;
//! * the §7.2 defense adds an optional signature field to frame metadata;
//!   the codec carries it opaquely, `livescope-security` fills and checks
//!   it.

use bytes::{BufMut, Bytes, BytesMut};

use crate::wire::{
    ensure, expect_eof, get_bytes, get_string, get_u16, get_u32, get_u64, get_u8, put_bytes,
    put_string, WireError,
};

/// Magic prefix of every RTMP-shaped message ("LSR1").
pub const RTMP_MAGIC: u32 = 0x4C53_5231;
/// Protocol version this codec speaks.
pub const RTMP_VERSION: u8 = 1;
/// Nominal frame spacing: the paper reports ≈40 ms frames (25 fps).
pub const FRAME_INTERVAL_MS: u64 = 40;

/// Bytes before a message's body: magic, version, tag.
const HEADER_LEN: usize = 4 + 1 + 1;

const TAG_HANDSHAKE: u8 = 0x01;
const TAG_CONNECT: u8 = 0x02;
const TAG_FRAME: u8 = 0x03;
const TAG_ACK: u8 = 0x04;
const TAG_CLOSE: u8 = 0x05;

const FLAG_KEYFRAME: u8 = 0b0000_0001;
const FLAG_SIGNED: u8 = 0b0000_0010;

/// Whether a connection uploads or downloads video.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// The broadcaster pushing frames up to Wowza.
    Publisher,
    /// A viewer receiving pushed frames from Wowza.
    Subscriber,
}

/// Frame metadata carried alongside the payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FrameMeta {
    /// Monotonic frame index within the broadcast.
    pub sequence: u64,
    /// Capture timestamp from the broadcaster's device clock, µs. The paper
    /// notes this "may not always be a universal timestamp"; server-side
    /// delay accounting therefore never mixes it with server clocks.
    pub capture_ts_us: u64,
    /// True for keyframes (paper: capture timestamps ride on keyframes).
    pub keyframe: bool,
    /// §7.2 integrity signature over [`VideoFrame::signable_bytes`], if the
    /// broadcaster signs its stream. Empty-capable, bounded at `u16` len.
    pub signature: Option<Bytes>,
}

/// One video frame on the wire.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VideoFrame {
    pub meta: FrameMeta,
    pub payload: Bytes,
}

impl VideoFrame {
    /// An unsigned frame.
    pub fn new(sequence: u64, capture_ts_us: u64, keyframe: bool, payload: Bytes) -> Self {
        VideoFrame {
            meta: FrameMeta {
                sequence,
                capture_ts_us,
                keyframe,
                signature: None,
            },
            payload,
        }
    }

    /// The canonical bytes an integrity signature covers: sequence,
    /// capture timestamp, keyframe flag and payload. The signature field
    /// itself is excluded, so signing and verifying agree by construction.
    pub fn signable_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(17 + self.payload.len());
        v.extend_from_slice(&self.meta.sequence.to_be_bytes());
        v.extend_from_slice(&self.meta.capture_ts_us.to_be_bytes());
        v.push(self.meta.keyframe as u8);
        v.extend_from_slice(&self.payload);
        v
    }

    /// Encoded size of this frame's body (without the message header).
    pub fn encoded_len(&self) -> usize {
        let sig = self.meta.signature.as_ref().map_or(0, |s| 2 + s.len());
        8 + 8 + 1 + sig + 4 + self.payload.len()
    }

    pub(crate) fn encode_body(&self, out: &mut impl BufMut) {
        out.put_u64(self.meta.sequence);
        out.put_u64(self.meta.capture_ts_us);
        let mut flags = 0u8;
        if self.meta.keyframe {
            flags |= FLAG_KEYFRAME;
        }
        if self.meta.signature.is_some() {
            flags |= FLAG_SIGNED;
        }
        out.put_u8(flags);
        if let Some(sig) = &self.meta.signature {
            assert!(sig.len() <= u16::MAX as usize, "signature too large");
            out.put_u16(sig.len() as u16);
            out.put_slice(sig);
        }
        put_bytes(out, &self.payload);
    }

    pub(crate) fn decode_body(buf: &mut Bytes) -> Result<Self, WireError> {
        let sequence = get_u64(buf)?;
        let capture_ts_us = get_u64(buf)?;
        let flags = get_u8(buf)?;
        if flags & !(FLAG_KEYFRAME | FLAG_SIGNED) != 0 {
            return Err(WireError::Invalid("unknown frame flags"));
        }
        let signature = if flags & FLAG_SIGNED != 0 {
            let len = get_u16(buf)? as usize;
            ensure(buf, len)?;
            Some(buf.split_to(len))
        } else {
            None
        };
        let payload = get_bytes(buf)?;
        Ok(VideoFrame {
            meta: FrameMeta {
                sequence,
                capture_ts_us,
                keyframe: flags & FLAG_KEYFRAME != 0,
                signature,
            },
            payload,
        })
    }
}

/// Writes what every message starts with: magic, version, `tag`.
fn put_header(out: &mut impl BufMut, tag: u8) {
    out.put_u32(RTMP_MAGIC);
    out.put_u8(RTMP_VERSION);
    out.put_u8(tag);
}

/// Writes a whole frame message: header, then body.
fn put_frame(out: &mut impl BufMut, frame: &VideoFrame) {
    put_header(out, TAG_FRAME);
    frame.encode_body(out);
}

/// A complete RTMP-shaped message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RtmpMessage {
    /// Connection opener; the nonce makes captures distinguishable.
    Handshake { nonce: u64 },
    /// Plaintext session establishment — the token is readable on-path.
    Connect {
        token: String,
        role: Role,
        user_id: u64,
    },
    /// One pushed video frame.
    Frame(VideoFrame),
    /// Flow-control acknowledgement of a frame sequence.
    Ack { sequence: u64 },
    /// Orderly end of stream.
    Close,
}

impl RtmpMessage {
    /// Encodes a frame message, header included, from a borrowed frame,
    /// sized exactly and written in the block it is shared from. A server
    /// pushing one frame to many sockets calls [`Self::encode_frame_into`]
    /// per socket instead; both write through the same writer.
    pub fn encode_frame(frame: &VideoFrame) -> Bytes {
        Bytes::build_exact(HEADER_LEN + frame.encoded_len(), |out| {
            put_frame(out, frame)
        })
    }

    /// Encodes a frame message into a connection's send buffer: the same
    /// bytes as [`Self::encode_frame`], written over `send`'s own block
    /// when no earlier push still holds it and the block is long enough
    /// ([`Bytes::rebuild_exact`]), else into a fresh one.
    pub fn encode_frame_into(frame: &VideoFrame, send: &mut Bytes) {
        send.rebuild_exact(HEADER_LEN + frame.encoded_len(), |out| {
            put_frame(out, frame)
        });
    }

    /// Encodes the message, header included.
    pub fn encode(&self) -> Bytes {
        // Control messages are small: they grow a 64-byte builder.
        let control = |tag| {
            let mut out = BytesMut::with_capacity(64);
            put_header(&mut out, tag);
            out
        };
        let out = match self {
            RtmpMessage::Frame(frame) => return Self::encode_frame(frame),
            RtmpMessage::Handshake { nonce } => {
                let mut out = control(TAG_HANDSHAKE);
                out.put_u64(*nonce);
                out
            }
            RtmpMessage::Connect {
                token,
                role,
                user_id,
            } => {
                let mut out = control(TAG_CONNECT);
                put_string(&mut out, token);
                out.put_u8(match role {
                    Role::Publisher => 0,
                    Role::Subscriber => 1,
                });
                out.put_u64(*user_id);
                out
            }
            RtmpMessage::Ack { sequence } => {
                let mut out = control(TAG_ACK);
                out.put_u64(*sequence);
                out
            }
            RtmpMessage::Close => control(TAG_CLOSE),
        };
        out.freeze()
    }

    /// Decodes one message, requiring the buffer to contain exactly one.
    pub fn decode(mut buf: Bytes) -> Result<Self, WireError> {
        let msg = Self::decode_prefix(&mut buf)?;
        expect_eof(&buf)?;
        Ok(msg)
    }

    /// Decodes one message from the front of `buf`, leaving any remainder
    /// (stream parsing).
    pub fn decode_prefix(buf: &mut Bytes) -> Result<Self, WireError> {
        let magic = get_u32(buf)?;
        if magic != RTMP_MAGIC {
            return Err(WireError::BadMagic {
                expected: RTMP_MAGIC,
                found: magic,
            });
        }
        let version = get_u8(buf)?;
        if version != RTMP_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let tag = get_u8(buf)?;
        match tag {
            TAG_HANDSHAKE => Ok(RtmpMessage::Handshake {
                nonce: get_u64(buf)?,
            }),
            TAG_CONNECT => {
                let token = get_string(buf)?;
                let role = match get_u8(buf)? {
                    0 => Role::Publisher,
                    1 => Role::Subscriber,
                    _ => return Err(WireError::Invalid("unknown role")),
                };
                let user_id = get_u64(buf)?;
                Ok(RtmpMessage::Connect {
                    token,
                    role,
                    user_id,
                })
            }
            TAG_FRAME => Ok(RtmpMessage::Frame(VideoFrame::decode_body(buf)?)),
            TAG_ACK => Ok(RtmpMessage::Ack {
                sequence: get_u64(buf)?,
            }),
            TAG_CLOSE => Ok(RtmpMessage::Close),
            other => Err(WireError::UnknownTag(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame(signed: bool) -> VideoFrame {
        let mut f = VideoFrame::new(42, 1_234_567, true, Bytes::from_static(b"frame-bytes"));
        if signed {
            f.meta.signature = Some(Bytes::from_static(&[9u8; 32]));
        }
        f
    }

    #[test]
    fn all_message_kinds_roundtrip() {
        let msgs = vec![
            RtmpMessage::Handshake { nonce: 77 },
            RtmpMessage::Connect {
                token: "tok-abc".into(),
                role: Role::Publisher,
                user_id: 5,
            },
            RtmpMessage::Connect {
                token: "tok-xyz".into(),
                role: Role::Subscriber,
                user_id: 6,
            },
            RtmpMessage::Frame(sample_frame(false)),
            RtmpMessage::Frame(sample_frame(true)),
            RtmpMessage::Ack { sequence: 42 },
            RtmpMessage::Close,
        ];
        for msg in msgs {
            let encoded = msg.encode();
            let decoded = RtmpMessage::decode(encoded).unwrap();
            assert_eq!(decoded, msg);
        }
    }

    #[test]
    fn connect_token_is_visible_in_plaintext() {
        // The §7 vulnerability in one assertion: the raw wire bytes of a
        // connect message contain the token verbatim.
        let msg = RtmpMessage::Connect {
            token: "secret-broadcast-token".into(),
            role: Role::Publisher,
            user_id: 1,
        };
        let wire = msg.encode();
        let haystack = wire.as_ref();
        let needle = b"secret-broadcast-token";
        assert!(
            haystack.windows(needle.len()).any(|w| w == needle),
            "token must be readable on the wire (that is the vulnerability)"
        );
    }

    #[test]
    fn stream_decoding_leaves_the_remainder() {
        let mut stream = BytesMut::new();
        stream.extend_from_slice(&RtmpMessage::Ack { sequence: 1 }.encode());
        stream.extend_from_slice(&RtmpMessage::Close.encode());
        let mut buf = stream.freeze();
        assert_eq!(
            RtmpMessage::decode_prefix(&mut buf).unwrap(),
            RtmpMessage::Ack { sequence: 1 }
        );
        assert_eq!(
            RtmpMessage::decode_prefix(&mut buf).unwrap(),
            RtmpMessage::Close
        );
        assert!(buf.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut wire = BytesMut::from(&RtmpMessage::Close.encode()[..]);
        wire[0] ^= 0xFF;
        match RtmpMessage::decode(wire.freeze()) {
            Err(WireError::BadMagic { .. }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut wire = BytesMut::from(&RtmpMessage::Close.encode()[..]);
        wire[4] = 99;
        assert_eq!(
            RtmpMessage::decode(wire.freeze()),
            Err(WireError::BadVersion(99))
        );
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut wire = BytesMut::from(&RtmpMessage::Close.encode()[..]);
        wire[5] = 0xEE;
        assert_eq!(
            RtmpMessage::decode(wire.freeze()),
            Err(WireError::UnknownTag(0xEE))
        );
    }

    #[test]
    fn unknown_frame_flags_are_rejected() {
        let mut out = BytesMut::new();
        out.put_u32(RTMP_MAGIC);
        out.put_u8(RTMP_VERSION);
        out.put_u8(TAG_FRAME);
        out.put_u64(1);
        out.put_u64(2);
        out.put_u8(0b1000_0000); // reserved flag
        put_bytes(&mut out, b"x");
        assert_eq!(
            RtmpMessage::decode(out.freeze()),
            Err(WireError::Invalid("unknown frame flags"))
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut wire = BytesMut::from(&RtmpMessage::Close.encode()[..]);
        wire.put_u8(0);
        assert!(RtmpMessage::decode(wire.freeze()).is_err());
    }

    #[test]
    fn truncated_frame_is_rejected() {
        let wire = RtmpMessage::Frame(sample_frame(true)).encode();
        for cut in 1..wire.len() {
            let truncated = wire.slice(..cut);
            assert!(
                RtmpMessage::decode(truncated).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn signable_bytes_exclude_signature() {
        let unsigned = sample_frame(false);
        let signed = sample_frame(true);
        assert_eq!(unsigned.signable_bytes(), signed.signable_bytes());
    }

    #[test]
    fn signable_bytes_cover_payload_and_meta() {
        let base = sample_frame(false);
        let mut tampered_payload = base.clone();
        tampered_payload.payload = Bytes::from_static(b"EVIL-BYTES!");
        assert_ne!(base.signable_bytes(), tampered_payload.signable_bytes());
        let mut tampered_seq = base.clone();
        tampered_seq.meta.sequence += 1;
        assert_ne!(base.signable_bytes(), tampered_seq.signable_bytes());
        let mut tampered_key = base.clone();
        tampered_key.meta.keyframe = !tampered_key.meta.keyframe;
        assert_ne!(base.signable_bytes(), tampered_key.signable_bytes());
    }

    #[test]
    fn encoded_len_matches_actual_body_size() {
        for signed in [false, true] {
            let frame = sample_frame(signed);
            let wire = RtmpMessage::encode_frame(&frame);
            assert_eq!(wire.len(), 6 + frame.encoded_len());
            let mut send = Bytes::new();
            RtmpMessage::encode_frame_into(&frame, &mut send);
            assert_eq!(send, wire, "one writer");
            assert_eq!(wire, RtmpMessage::Frame(frame).encode(), "one encoder");
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn frame_message_wire_format_is_pinned() {
        // magic, version, tag | sequence | capture ts | flags |
        // [sig len, sig] | payload len, payload.
        assert_eq!(
            hex(&RtmpMessage::encode_frame(&sample_frame(false))),
            "4c535231_01_03_000000000000002a_000000000012d687_01\
             _0000000b_6672616d652d6279746573"
                .replace('_', "")
        );
        assert_eq!(
            hex(&RtmpMessage::encode_frame(&sample_frame(true))),
            format!(
                "4c535231_01_03_000000000000002a_000000000012d687_03\
                 _0020_{}_0000000b_6672616d652d6279746573",
                "09".repeat(32)
            )
            .replace('_', "")
        );
    }
}
