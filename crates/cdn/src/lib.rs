//! # livescope-cdn — the livestreaming delivery system under study
//!
//! A from-scratch implementation of the infrastructure the IMC'16 paper
//! reverse-engineered (Fig 8): a **control server** that issues broadcast
//! tokens and stream URLs and keeps the global broadcast list; **Wowza**
//! ingest datacenters speaking the RTMP-shaped push protocol; **Fastly**
//! edge POPs serving HLS chunklists and chunks with origin-pull-on-first-
//! poll and co-located-gateway replication; and a **PubNub**-style message
//! bus for hearts and comments.
//!
//! Every server is a *pure state machine*: methods take "now" plus an
//! input and return typed outcomes (deliveries with sampled delays,
//! completed chunks, poll results). The experiment orchestrator in
//! `livescope-core` feeds those outcomes into the discrete-event
//! scheduler; the servers themselves never touch it, which keeps each
//! mechanism — chunking, handoff at 100 viewers, chunklist expiry, gateway
//! replication — independently testable.
//!
//! Mechanisms reproduced, with their paper anchor:
//!
//! * RTMP persistent sessions with server-side **push** per ~40 ms frame
//!   (§4.1), vs HLS **poll** per 2–2.8 s (§5.2);
//! * chunking at 3 s (>85.9% of broadcasts, §5.2);
//! * the first ~100 viewers get RTMP + comment rights; later arrivals are
//!   handed to HLS (§1, §4.1);
//! * chunk replication Wowza → co-located Fastly gateway → other POPs,
//!   triggered by the first viewer poll after chunklist expiry (§4.2,
//!   §5.3);
//! * nearest-datacenter assignment for broadcasters and IP-anycast nearest
//!   POP for HLS viewers (§5.3);
//! * plaintext-token ingest authentication — the §7 vulnerability — plus
//!   an optional frame-verifier hook where the §7.2 defense plugs in.
//!
//! Clients reach these servers through typed methods, not HTTP frames.
//! Meerkat's §4.1 variant (one upload POST, HLS only, 3.6 s chunks) is
//! not built here: the paper measures Meerkat through its usage, which
//! `livescope-workload` reproduces.

pub mod chunker;
pub mod cluster;
pub mod control;
pub mod fanout;
pub mod fastly;
pub mod ids;
pub mod pubnub;
pub mod wowza;

pub use chunker::{Chunker, ReadyChunk};
pub use cluster::{CdnError, Cluster};
pub use control::ControlServer;
pub use fanout::{run_fanout, FanoutConfig, FanoutReport};
pub use fastly::{FastlyPop, FetchPlan};
pub use ids::{BroadcastId, UserId};
pub use pubnub::PubNub;
pub use wowza::WowzaServer;
