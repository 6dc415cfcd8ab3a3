//! # livescope-workload — calibrated synthetic Periscope/Meerkat workloads
//!
//! The paper's §3 characterizes two real workloads: Periscope over 97 days
//! (19.6M broadcasts, 705M views) and Meerkat over 34 days (164K
//! broadcasts, 3.8M views). Those services are gone; this crate generates
//! synthetic workloads whose *distributions* reproduce every §3 figure:
//!
//! | Paper result | Module | Mechanism |
//! |---|---|---|
//! | Fig 1 daily broadcasts (3× growth, weekend peaks, Android jump, Meerkat decline) | [`arrivals`] | exponential trend × weekly pattern × launch jump, Poisson day counts |
//! | Fig 2 daily active users (≈10:1 viewer:broadcaster) | [`GroundTruth`] | per-day distinct-user accounting |
//! | Fig 3 broadcast length CDF (85% < 10 min) | [`duration`] | lognormal, Meerkat-heavier tail |
//! | Fig 4 viewers per broadcast (Meerkat 60% zero; Periscope ≤100K) | [`popularity`] | zero-inflated truncated power law + follower-notification joins |
//! | Fig 5 hearts & comments per broadcast (comment cap at ~100 commenters) | [`interactions`] | per-viewer heart process; commenter cap × per-commenter comments |
//! | Fig 6 per-user activity skew | [`RecordSampler`] + [`pick`] | heavy-tailed viewing/creation propensities, picked through a guide table |
//! | Fig 7 followers vs. viewers correlation | [`popularity`] + `livescope-graph` | notification joins are binomial in follower count |
//! | Table 1 dataset totals | [`scenario`] presets + [`BroadcastStream`] | everything above, integrated |
//!
//! Scaled-down by `ScenarioConfig::scale_divisor` (default 1000×) so a
//! full "study" runs in seconds; per-broadcast distributions are *not*
//! scaled, so CDF shapes are comparable with the paper axis-for-axis.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod arrivals;
pub mod bitset;
pub mod duration;
pub mod generate;
pub mod interactions;
pub mod pick;
pub mod popularity;
pub mod scenario;
pub mod types;

pub use bitset::FixedBitset;
pub use generate::{
    default_graph_seed, default_graph_spec, generate_streaming, generate_streaming_with_graph,
    BroadcastStream, GroundTruth, RecordSampler, ScheduleStream, ScheduledBroadcast,
};
pub use pick::CumulativeTable;
pub use scenario::{App, ScenarioConfig};
pub use types::{BroadcastRecord, DayStats, WorkloadSummary};
