//! # livescope-crawler — the IMC'16 measurement apparatus
//!
//! The paper's datasets came from purpose-built crawlers (§3.1):
//! multiple accounts polling the 50-random global list every 5 s each
//! (staggered to one refresh per 0.25 s), a join-thread per discovered
//! broadcast recording metadata until it ends, and — for the delay study —
//! an HLS poller hammering Fastly every 0.1 s to timestamp chunk arrivals.
//! This crate rebuilds that apparatus against the simulated service:
//!
//! * [`coverage`] — the global-list crawler as a discrete-event
//!   simulation; reproduces the §3.1 calibration ("a refresh per 0.5 s
//!   already captures all broadcasts") and quantifies discovery latency
//!   vs. refresh rate;
//! * [`campaign`] — the crawler's realities applied to a generated
//!   workload: the Aug 7–9 outage (≈4.5% of that period's broadcasts
//!   lost) and anonymization;
//! * [`streaming`] — the bounded-memory campaign accumulator: mergeable
//!   aggregates (`O(users + days + bins)`) instead of materialized
//!   records, and [`run_campaign_streaming`], the one-shard replay;
//! * [`sharded`] — the campaign's one driver: a fresh
//!   [`livescope_workload::BroadcastStream`] replayed over K
//!   deterministic user-space shards folding independently (on scoped
//!   worker threads when K > 1) and merging in fixed shard order,
//!   byte-identical for every K (`crates/crawler/DESIGN.md`);
//! * [`probe`] — the high-frequency HLS poller that measures
//!   Wowza→Fastly chunk-transfer delay (the `⑪−⑦` of Fig 10(b)).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod campaign;
pub mod coverage;
pub mod probe;
pub mod sharded;
pub mod streaming;

pub use campaign::{CampaignConfig, OutageFilter};
pub use coverage::{CoverageConfig, CoverageReport};
pub use probe::HighFreqProbe;
pub use sharded::{run_campaign_sharded, ShardedRunStats};
pub use streaming::{run_campaign_streaming, DatasetSummary, StreamingCampaign};
