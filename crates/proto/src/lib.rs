//! # livescope-proto — byte-level streaming protocol codecs
//!
//! Faithful-in-shape reimplementations of the wire formats the IMC'16 paper
//! reverse-engineered from Periscope traffic:
//!
//! * [`rtmp`] — the ingest/low-latency distribution protocol: a
//!   handshake, a *plaintext* connect message carrying the broadcast token
//!   (the §7 vulnerability), and per-frame video messages whose metadata
//!   embeds the broadcaster's capture timestamp (the paper extracted
//!   timestamp ① from exactly this field) and an optional integrity
//!   signature (the §7.2 defense);
//! * [`hls`] — chunk containers assembled from RTMP frames plus an
//!   m3u8-style text chunklist that edge servers cache and viewers poll;
//! * [`http`] — a minimal HTTP/1.1-shaped request/response framing used by
//!   the HLS polling path and the crawler;
//! * [`message`] — the PubNub-style side channel carrying hearts and
//!   comments;
//! * [`control`] — the HTTPS control-plane messages (broadcast creation,
//!   join, global-list sampling). These are modelled as encrypted: the
//!   attack code in `livescope-security` can observe but not parse them.
//! * [`wire`] — shared big-endian primitives and error type.
//!
//! All codecs are strict: decoding validates magic numbers, versions and
//! length fields and fails with a typed [`wire::WireError`] instead of
//! panicking, because the security experiments deliberately feed corrupted
//! bytes through them.

pub mod control;
pub mod hls;
pub mod http;
pub mod message;
pub mod rtmp;
pub mod wire;

pub use wire::WireError;
