//! # livescope-core — the experiment suite
//!
//! This crate is the paper, runnable: every table and figure of
//! *Anatomy of a Personalized Livestreaming System* (IMC 2016) has a
//! corresponding experiment here, built on the substrates in the sibling
//! crates. Each experiment follows the same contract:
//!
//! * a `Config` struct whose `Default`/`paper()` constructor encodes the
//!   paper's parameters (scaled where the original is planetary);
//! * a pure `run(&Config) -> Report` function — deterministic in
//!   `(config, seed)`;
//! * a `Report::render()` producing the ASCII table/figure plus
//!   machine-readable series.
//!
//! | Experiment | Paper artifact | Module |
//! |---|---|---|
//! | Usage & growth | Table 1, Figs 1–6 | [`experiments::usage`] |
//! | Social structure | Table 2, Fig 7 | [`experiments::social`] |
//! | Datacenter map | Fig 9 | [`experiments::geolocation`] |
//! | Delay breakdown | Figs 10–11 | [`experiments::breakdown`] |
//! | Polling delay | Figs 12–13 | [`experiments::polling`] |
//! | Server scalability | Fig 14 | [`experiments::scalability`] |
//! | Wowza→Fastly delay | Fig 15 | [`experiments::geolocation`] |
//! | Client buffering | Figs 16–17 | [`experiments::buffering`] |
//! | Hijack & defense | Fig 18, §7 | [`experiments::security`] |
//! | Overlay multicast (extension) | §8 sketch | [`experiments::overlay_ext`] |
//! | Crawler calibration | §3.1 | re-exported from `livescope-crawler` |

pub mod experiments;

pub use experiments::breakdown;
pub use experiments::buffering;
pub use experiments::chunk_tradeoff;
pub use experiments::geolocation;
pub use experiments::interactivity;
pub use experiments::overlay_ext;
pub use experiments::polling;
pub use experiments::scalability;
pub use experiments::security;
pub use experiments::social;
pub use experiments::usage;
