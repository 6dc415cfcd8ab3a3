//! # livescope-client — broadcaster and viewer endpoints
//!
//! The device side of the system: a camera producing ~40 ms frames over a
//! possibly-bursty uplink, RTMP viewers receiving server pushes, HLS
//! viewers running the 2–2.8 s poll loop, and the playback buffer whose
//! configuration §6 of the paper dissects.
//!
//! * [`broadcaster`] — frame source (keyframe cadence, realistic sizes)
//!   and the two-state bursty uplink model that produces the paper's
//!   "bursty arrival of video frames during uploading" (the cause of the
//!   >5 s buffering tail in Fig 16(b));
//! * [`playback`] — the decompiled buffering strategy of §6: pre-buffer
//!   `P` seconds, play in sequence order, **rebuffer** (stall) when the
//!   next unit is missing, and **discard** stragglers that show up after
//!   newer content already played. Emits the two §6 metrics: stalling
//!   ratio and average buffering delay;
//! * [`viewer`] — drivers that connect the client side to a
//!   `livescope-cdn` [`livescope_cdn::Cluster`] and come back with
//!   arrival traces ready for [`playback::simulate_playback`].

pub mod broadcaster;
pub mod playback;
pub mod viewer;

pub use broadcaster::{FrameSource, UplinkClass, UplinkModel};
pub use playback::{simulate_playback, ArrivedUnit, PlaybackReport};
pub use viewer::{HlsViewer, RtmpViewer};
