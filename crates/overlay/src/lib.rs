//! # livescope-overlay — the §8 alternative architecture, built
//!
//! The paper closes by sketching a way out of the RTMP/HLS dilemma:
//!
//! > "To avoid the costs of managing persistent connections to each
//! > viewer, we can leverage a hierarchy of geographically clustered
//! > forwarding servers. To access a broadcast, a viewer would forward a
//! > request through their local leaf server and up the hierarchy,
//! > setting up a reverse forwarding path in the process. Once built, the
//! > forwarding path can efficiently forward video frames without
//! > per-viewer state or periodic polling. The result is effectively a
//! > receiver-driven overlay multicast tree (similar to Scribe and
//! > Akamai's streaming CDN)."
//!
//! This crate implements exactly that sketch so the `livescope-core`
//! extension experiment can quantify it against RTMP and HLS:
//!
//! * [`hierarchy`] — the static forwarding hierarchy over the paper's
//!   datacenter map: ingest root → one gateway per continent → leaf POPs;
//! * [`tree`] — the per-broadcast receiver-driven multicast tree: joins
//!   graft a reverse path leaf→root (creating state only on the path),
//!   leaves prune it back; frames are pushed once per tree *edge*, never
//!   once per viewer at the origin;
//! * [`deliver`] — frame fan-out through the tree with sampled link
//!   delays, producing per-viewer latencies and per-node work counters.
//!
//! The headline property (tested here, measured in
//! `livescope_core::experiments::overlay_ext`): origin work is bounded by
//! the number of *continents with audience* regardless of audience size,
//! while per-viewer delay stays push-grade — no 3 s chunks, no polling.

pub mod deliver;
pub mod hierarchy;
pub mod tree;

pub use deliver::{DeliveryOutcome, OverlayNetwork};
pub use hierarchy::Hierarchy;
pub use tree::MulticastTree;
