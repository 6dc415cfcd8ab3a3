//! Control-plane messages and the modelled-encrypted envelope.
//!
//! The Periscope server itself "only acts as a control panel" (§4.1): over
//! HTTPS it hands out broadcast tokens, stream URLs and the global
//! broadcast list. We model that channel with [`Sealed`], a toy
//! authenticated stream cipher (splitmix64 keystream + keyed checksum).
//! **It is not real cryptography** — see DESIGN.md — but it preserves the
//! property the §7 security analysis needs: an on-path attacker can read
//! and forge RTMP (plaintext) but can neither read nor forge the control
//! channel, so the broadcast token is only exposed when the *client*
//! re-sends it over plaintext RTMP.

use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;
use std::str::FromStr;

use crate::wire::{
    ensure, expect_eof, get_bytes, get_string, get_u32, get_u64, get_u8, put_bytes, put_string,
    WireError,
};

/// Magic prefix of a sealed envelope ("LSS1").
pub const SEALED_MAGIC: u32 = 0x4C53_5331;
/// Magic prefix of a plaintext control message ("LSK1").
pub const CONTROL_MAGIC: u32 = 0x4C53_4B31;

/// Transport protocol of a stream URL.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Scheme {
    /// Low-latency push from a Wowza datacenter.
    Rtmp,
    /// Chunked poll from a Fastly POP.
    Hls,
}

/// A stream endpoint: which protocol, which datacenter, which broadcast.
///
/// Rendered like `rtmp://dc-3.livescope/bcast/42`. The crawler manipulates
/// these as text — the paper's authors "deleted the RTMP url manually,
/// forcing the smartphone to connect to the HLS server", and our controlled
/// experiments do exactly the same edit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StreamUrl {
    pub scheme: Scheme,
    /// Datacenter id from `livescope-net`'s registry.
    pub dc: u16,
    pub broadcast_id: u64,
}

impl fmt::Display for StreamUrl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let scheme = match self.scheme {
            Scheme::Rtmp => "rtmp",
            Scheme::Hls => "hls",
        };
        write!(
            f,
            "{scheme}://dc-{}.livescope/bcast/{}",
            self.dc, self.broadcast_id
        )
    }
}

impl FromStr for StreamUrl {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, WireError> {
        let (scheme, rest) = s
            .split_once("://")
            .ok_or(WireError::Invalid("missing scheme"))?;
        let scheme = match scheme {
            "rtmp" => Scheme::Rtmp,
            "hls" => Scheme::Hls,
            _ => return Err(WireError::Invalid("unknown scheme")),
        };
        let rest = rest
            .strip_prefix("dc-")
            .ok_or(WireError::Invalid("missing datacenter host"))?;
        let (dc, rest) = rest
            .split_once(".livescope/bcast/")
            .ok_or(WireError::Invalid("malformed stream path"))?;
        let dc = dc.parse().map_err(|_| WireError::Invalid("bad dc id"))?;
        let broadcast_id = rest
            .parse()
            .map_err(|_| WireError::Invalid("bad broadcast id"))?;
        Ok(StreamUrl {
            scheme,
            dc,
            broadcast_id,
        })
    }
}

/// Summary row of the global broadcast list (50 random active broadcasts
/// per query, §3.1).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BroadcastSummary {
    pub broadcast_id: u64,
    pub broadcaster_id: u64,
    /// Broadcast start, µs of simulation time.
    pub started_ts_us: u64,
}

/// Client → control-server messages.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ControlRequest {
    /// Start a broadcast; the server allocates an id, token and URLs.
    CreateBroadcast { user_id: u64 },
    /// End a broadcast (authenticated by token).
    EndBroadcast { broadcast_id: u64, token: String },
    /// Join a broadcast as a viewer.
    Join { broadcast_id: u64, user_id: u64 },
    /// Fetch the 50-sample global list.
    GlobalList,
}

/// Control-server → client messages.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ControlResponse {
    /// Broadcast created.
    Created {
        broadcast_id: u64,
        /// The secret the broadcaster later replays — in plaintext — over
        /// RTMP. This is where the §7 story starts.
        token: String,
        rtmp_url: StreamUrl,
        hls_url: StreamUrl,
    },
    /// Join admitted. `rtmp_url` is present only while the broadcast has
    /// RTMP slots left (the first ~100 viewers); every viewer gets the HLS
    /// URL. `can_comment` mirrors RTMP admission (§4.1).
    JoinInfo {
        rtmp_url: Option<StreamUrl>,
        hls_url: StreamUrl,
        can_comment: bool,
    },
    /// The 50-sample global list.
    GlobalList(Vec<BroadcastSummary>),
    /// Generic acknowledgement.
    Ok,
    /// Request failed.
    Error(String),
}

const REQ_CREATE: u8 = 1;
const REQ_END: u8 = 2;
const REQ_JOIN: u8 = 3;
const REQ_LIST: u8 = 4;

const RESP_CREATED: u8 = 1;
const RESP_JOIN: u8 = 2;
const RESP_LIST: u8 = 3;
const RESP_OK: u8 = 4;
const RESP_ERROR: u8 = 5;
/// Wire size of one [`BroadcastSummary`]: three `u64`s.
const SUMMARY_WIRE_LEN: usize = 24;

fn put_url(out: &mut BytesMut, url: &StreamUrl) {
    put_string(out, &url.to_string());
}

fn get_url(buf: &mut Bytes) -> Result<StreamUrl, WireError> {
    get_string(buf)?.parse()
}

impl ControlRequest {
    /// Encodes the plaintext form (callers normally wrap in [`Sealed`]).
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(32);
        out.put_u32(CONTROL_MAGIC);
        match self {
            ControlRequest::CreateBroadcast { user_id } => {
                out.put_u8(REQ_CREATE);
                out.put_u64(*user_id);
            }
            ControlRequest::EndBroadcast {
                broadcast_id,
                token,
            } => {
                out.put_u8(REQ_END);
                out.put_u64(*broadcast_id);
                put_string(&mut out, token);
            }
            ControlRequest::Join {
                broadcast_id,
                user_id,
            } => {
                out.put_u8(REQ_JOIN);
                out.put_u64(*broadcast_id);
                out.put_u64(*user_id);
            }
            ControlRequest::GlobalList => out.put_u8(REQ_LIST),
        }
        out.freeze()
    }

    /// Decodes the plaintext form.
    pub fn decode(mut buf: Bytes) -> Result<Self, WireError> {
        let magic = get_u32(&mut buf)?;
        if magic != CONTROL_MAGIC {
            return Err(WireError::BadMagic {
                expected: CONTROL_MAGIC,
                found: magic,
            });
        }
        let msg = match get_u8(&mut buf)? {
            REQ_CREATE => ControlRequest::CreateBroadcast {
                user_id: get_u64(&mut buf)?,
            },
            REQ_END => ControlRequest::EndBroadcast {
                broadcast_id: get_u64(&mut buf)?,
                token: get_string(&mut buf)?,
            },
            REQ_JOIN => ControlRequest::Join {
                broadcast_id: get_u64(&mut buf)?,
                user_id: get_u64(&mut buf)?,
            },
            REQ_LIST => ControlRequest::GlobalList,
            other => return Err(WireError::UnknownTag(other)),
        };
        expect_eof(&buf)?;
        Ok(msg)
    }
}

impl ControlResponse {
    /// Encodes the plaintext form.
    pub fn encode(&self) -> Bytes {
        let mut out = BytesMut::with_capacity(64);
        out.put_u32(CONTROL_MAGIC);
        match self {
            ControlResponse::Created {
                broadcast_id,
                token,
                rtmp_url,
                hls_url,
            } => {
                out.put_u8(RESP_CREATED);
                out.put_u64(*broadcast_id);
                put_string(&mut out, token);
                put_url(&mut out, rtmp_url);
                put_url(&mut out, hls_url);
            }
            ControlResponse::JoinInfo {
                rtmp_url,
                hls_url,
                can_comment,
            } => {
                out.put_u8(RESP_JOIN);
                match rtmp_url {
                    Some(url) => {
                        out.put_u8(1);
                        put_url(&mut out, url);
                    }
                    None => out.put_u8(0),
                }
                put_url(&mut out, hls_url);
                out.put_u8(*can_comment as u8);
            }
            ControlResponse::GlobalList(items) => {
                out.put_u8(RESP_LIST);
                out.put_u32(items.len() as u32);
                for item in items {
                    out.put_u64(item.broadcast_id);
                    out.put_u64(item.broadcaster_id);
                    out.put_u64(item.started_ts_us);
                }
            }
            ControlResponse::Ok => out.put_u8(RESP_OK),
            ControlResponse::Error(text) => {
                out.put_u8(RESP_ERROR);
                put_string(&mut out, text);
            }
        }
        out.freeze()
    }

    /// Decodes the plaintext form.
    pub fn decode(mut buf: Bytes) -> Result<Self, WireError> {
        let magic = get_u32(&mut buf)?;
        if magic != CONTROL_MAGIC {
            return Err(WireError::BadMagic {
                expected: CONTROL_MAGIC,
                found: magic,
            });
        }
        let msg = match get_u8(&mut buf)? {
            RESP_CREATED => ControlResponse::Created {
                broadcast_id: get_u64(&mut buf)?,
                token: get_string(&mut buf)?,
                rtmp_url: get_url(&mut buf)?,
                hls_url: get_url(&mut buf)?,
            },
            RESP_JOIN => {
                let rtmp_url = match get_u8(&mut buf)? {
                    0 => None,
                    1 => Some(get_url(&mut buf)?),
                    _ => return Err(WireError::Invalid("bad option tag")),
                };
                let hls_url = get_url(&mut buf)?;
                let can_comment = match get_u8(&mut buf)? {
                    0 => false,
                    1 => true,
                    _ => return Err(WireError::Invalid("bad bool")),
                };
                ControlResponse::JoinInfo {
                    rtmp_url,
                    hls_url,
                    can_comment,
                }
            }
            RESP_LIST => {
                let n = get_u32(&mut buf)? as usize;
                if n > 100_000 {
                    return Err(WireError::OversizedField { len: n });
                }
                // Never reserve more than the buffer can fill: a summary
                // is three `u64`s on the wire.
                ensure(&buf, n * SUMMARY_WIRE_LEN)?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(BroadcastSummary {
                        broadcast_id: get_u64(&mut buf)?,
                        broadcaster_id: get_u64(&mut buf)?,
                        started_ts_us: get_u64(&mut buf)?,
                    });
                }
                ControlResponse::GlobalList(items)
            }
            RESP_OK => ControlResponse::Ok,
            RESP_ERROR => ControlResponse::Error(get_string(&mut buf)?),
            other => return Err(WireError::UnknownTag(other)),
        };
        expect_eof(&buf)?;
        Ok(msg)
    }
}

/// A sealed (modelled-encrypted, integrity-protected) envelope.
///
/// Construction: `magic ‖ nonce ‖ tag ‖ body⊕keystream(key, nonce)` where
/// the keystream is splitmix64 iterated from `key ⊕ nonce` and the tag is a
/// keyed 64-bit checksum of the plaintext. An attacker without `key` sees
/// only ciphertext; any bit-flip fails the tag check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Sealed {
    wire: Bytes,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn keystream_xor(data: &mut [u8], key: u64, nonce: u64) {
    let mut state = splitmix64(key ^ splitmix64(nonce));
    for block in data.chunks_mut(8) {
        state = splitmix64(state);
        for (b, k) in block.iter_mut().zip(state.to_be_bytes()) {
            *b ^= k;
        }
    }
}

fn tag_of(plaintext: &[u8], key: u64, nonce: u64) -> u64 {
    let mut acc = splitmix64(key.rotate_left(13) ^ nonce);
    for block in plaintext.chunks(8) {
        let mut word = [0u8; 8];
        word[..block.len()].copy_from_slice(block);
        acc = splitmix64(acc ^ u64::from_be_bytes(word));
    }
    acc
}

impl Sealed {
    /// Seals `plaintext` under `key` with the caller-chosen `nonce` (the
    /// control plane uses a per-session counter).
    pub fn seal(plaintext: &[u8], key: u64, nonce: u64) -> Sealed {
        let tag = tag_of(plaintext, key, nonce);
        let mut body = plaintext.to_vec();
        keystream_xor(&mut body, key, nonce);
        let mut out = BytesMut::with_capacity(24 + body.len());
        out.put_u32(SEALED_MAGIC);
        out.put_u64(nonce);
        out.put_u64(tag);
        put_bytes(&mut out, &body);
        Sealed { wire: out.freeze() }
    }

    /// The opaque wire form (what an on-path attacker can observe).
    pub fn wire(&self) -> &Bytes {
        &self.wire
    }

    /// Re-wraps observed wire bytes (attacker's view or transport replay).
    pub fn from_wire(wire: Bytes) -> Sealed {
        Sealed { wire }
    }

    /// Reads the envelope's (plaintext) nonce without opening it — the
    /// receiver's anti-replay check needs it before decryption.
    pub fn peek_nonce(&self) -> Result<u64, WireError> {
        let mut buf = self.wire.clone();
        let magic = get_u32(&mut buf)?;
        if magic != SEALED_MAGIC {
            return Err(WireError::BadMagic {
                expected: SEALED_MAGIC,
                found: magic,
            });
        }
        get_u64(&mut buf)
    }

    /// Opens the envelope, verifying the integrity tag.
    pub fn unseal(&self, key: u64) -> Result<Bytes, WireError> {
        let mut buf = self.wire.clone();
        let magic = get_u32(&mut buf)?;
        if magic != SEALED_MAGIC {
            return Err(WireError::BadMagic {
                expected: SEALED_MAGIC,
                found: magic,
            });
        }
        let nonce = get_u64(&mut buf)?;
        let tag = get_u64(&mut buf)?;
        let body = get_bytes(&mut buf)?;
        expect_eof(&buf)?;
        let mut plaintext = body.to_vec();
        keystream_xor(&mut plaintext, key, nonce);
        if tag_of(&plaintext, key, nonce) != tag {
            return Err(WireError::Invalid("sealed envelope failed integrity check"));
        }
        Ok(Bytes::from(plaintext))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(scheme: Scheme) -> StreamUrl {
        StreamUrl {
            scheme,
            dc: 3,
            broadcast_id: 42,
        }
    }

    #[test]
    fn stream_url_roundtrips() {
        for scheme in [Scheme::Rtmp, Scheme::Hls] {
            let u = url(scheme);
            let parsed: StreamUrl = u.to_string().parse().unwrap();
            assert_eq!(parsed, u);
        }
        assert_eq!(
            url(Scheme::Rtmp).to_string(),
            "rtmp://dc-3.livescope/bcast/42"
        );
    }

    #[test]
    fn stream_url_rejects_malformed() {
        for bad in [
            "nonsense",
            "ftp://dc-1.livescope/bcast/1",
            "rtmp://host/bcast/1",
            "rtmp://dc-x.livescope/bcast/1",
            "rtmp://dc-1.livescope/bcast/notanumber",
        ] {
            assert!(bad.parse::<StreamUrl>().is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn all_requests_roundtrip() {
        let reqs = vec![
            ControlRequest::CreateBroadcast { user_id: 7 },
            ControlRequest::EndBroadcast {
                broadcast_id: 42,
                token: "tok".into(),
            },
            ControlRequest::Join {
                broadcast_id: 42,
                user_id: 9,
            },
            ControlRequest::GlobalList,
        ];
        for req in reqs {
            assert_eq!(ControlRequest::decode(req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn all_responses_roundtrip() {
        let resps = vec![
            ControlResponse::Created {
                broadcast_id: 42,
                token: "secret".into(),
                rtmp_url: url(Scheme::Rtmp),
                hls_url: url(Scheme::Hls),
            },
            ControlResponse::JoinInfo {
                rtmp_url: Some(url(Scheme::Rtmp)),
                hls_url: url(Scheme::Hls),
                can_comment: true,
            },
            ControlResponse::JoinInfo {
                rtmp_url: None,
                hls_url: url(Scheme::Hls),
                can_comment: false,
            },
            ControlResponse::GlobalList(vec![
                BroadcastSummary {
                    broadcast_id: 1,
                    broadcaster_id: 2,
                    started_ts_us: 3,
                },
                BroadcastSummary {
                    broadcast_id: 4,
                    broadcaster_id: 5,
                    started_ts_us: 6,
                },
            ]),
            ControlResponse::Ok,
            ControlResponse::Error("rate limited".into()),
        ];
        for resp in resps {
            assert_eq!(ControlResponse::decode(resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn global_list_count_is_checked_before_allocating() {
        // Magic, tag, and a count of 100 000 summaries with no bodies.
        let mut wire = BytesMut::new();
        wire.put_u32(CONTROL_MAGIC);
        wire.put_u8(RESP_LIST);
        wire.put_u32(100_000);
        assert_eq!(wire.len(), 9);
        assert_eq!(
            ControlResponse::decode(wire.freeze()),
            Err(WireError::Truncated {
                needed: 2_400_000,
                available: 0
            })
        );
    }

    #[test]
    fn sealed_roundtrips_under_the_right_key() {
        let req = ControlRequest::CreateBroadcast { user_id: 7 };
        let sealed = Sealed::seal(&req.encode(), 0xDEAD_BEEF, 1);
        let opened = sealed.unseal(0xDEAD_BEEF).unwrap();
        assert_eq!(ControlRequest::decode(opened).unwrap(), req);
    }

    #[test]
    fn sealed_hides_the_plaintext() {
        // The token must NOT be findable in the sealed wire bytes — this is
        // the property that makes the RTMP path (not HTTPS) the weak link.
        let resp = ControlResponse::Created {
            broadcast_id: 42,
            token: "super-secret-token".into(),
            rtmp_url: url(Scheme::Rtmp),
            hls_url: url(Scheme::Hls),
        };
        let sealed = Sealed::seal(&resp.encode(), 0x1234, 9);
        let wire = sealed.wire();
        let needle = b"super-secret-token";
        assert!(
            !wire.windows(needle.len()).any(|w| w == needle),
            "sealed envelope leaked plaintext"
        );
    }

    #[test]
    fn wrong_key_fails_to_unseal() {
        let sealed = Sealed::seal(b"payload", 1, 2);
        assert!(sealed.unseal(3).is_err());
    }

    #[test]
    fn tampering_is_detected() {
        let sealed = Sealed::seal(b"attack at dawn", 1, 2);
        let mut wire = BytesMut::from(&sealed.wire()[..]);
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        let tampered = Sealed::from_wire(wire.freeze());
        assert!(tampered.unseal(1).is_err());
    }

    #[test]
    fn different_nonces_produce_different_ciphertexts() {
        let a = Sealed::seal(b"same plaintext", 5, 1);
        let b = Sealed::seal(b"same plaintext", 5, 2);
        assert_ne!(a.wire(), b.wire());
    }

    #[test]
    fn empty_plaintext_seals() {
        let sealed = Sealed::seal(b"", 5, 1);
        assert_eq!(sealed.unseal(5).unwrap().len(), 0);
    }
}
