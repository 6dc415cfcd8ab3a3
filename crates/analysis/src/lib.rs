//! # livescope-analysis — statistics and reporting toolkit
//!
//! Everything the paper reports is one of four artifact shapes: a summary
//! table (Tables 1–2), a CDF (Figs 3–6, 12–13, 15–17), a time series
//! (Figs 1–2) or a component breakdown (Fig 11). This crate implements
//! those shapes once so every experiment renders identically:
//!
//! * [`stats`] — streaming summaries (Welford), quantiles, correlation;
//! * [`cdf`] — empirical CDFs with exact quantiles and downsampled series;
//! * [`sketch`] — a log-binned quantile sketch with the same
//!   query surface as [`Cdf`], for bounded-memory streaming replay;
//! * [`delay`] — the six-component end-to-end delay ledger of Fig 10/11;
//! * [`table`] — ASCII table + CSV rendering;
//! * [`figure`] — labeled series, CSV export, and a terminal ASCII chart
//!   good enough to eyeball a CDF without leaving the shell.
//!
//! The crate is dependency-light (only `serde` for figure dumps) and uses
//! plain `f64` seconds for delays so it never entangles with simulation
//! types.

#![deny(missing_docs)]

pub mod cdf;
pub mod delay;
pub mod figure;
pub mod sketch;
pub mod stats;
pub mod table;

pub use cdf::Cdf;
pub use delay::{DelayBreakdown, DelayComponent};
pub use figure::{Figure, Series};
pub use sketch::QuantileSketch;
pub use stats::{pearson, OnlineStats};
pub use table::Table;
