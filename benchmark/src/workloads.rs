//! The four workloads: what each one sets up, the body that is repeated,
//! the units of work its input defines, and the digest that proves a
//! repetition produced the right output.

use livescope_cdn::fanout::{run_fanout, FanoutConfig, FanoutReport};
use livescope_core::experiments::breakdown::{self, BreakdownConfig, BreakdownReport};
use livescope_crawler::streaming::{DatasetSummary, DEFAULT_EXEMPLARS};
use livescope_crawler::{run_campaign_streaming, CampaignConfig};
use livescope_graph::{BuildOptions, DiGraph, GraphBuildStats, GraphSpec};
use livescope_sim::rng::splitmix64;
use livescope_telemetry::Telemetry;
use livescope_workload::{default_graph_seed, generate_streaming_with_graph, ScenarioConfig};

/// The seed the pinned digests belong to.
pub const DEFAULT_SEED: u64 = 0x5ca1_ab1e;

/// How long a run measures when `--seconds` does not say; the same as
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 24.0;

/// The paper-scale study divided by this: 300,000 users, ~504 k broadcasts.
const STUDY_DIVISOR: f64 = 40.0;

/// Points per sketch series folded into the replay digest; as dense as
/// the densest figure rendering, so no rendered bin escapes it.
const SERIES_POINTS: usize = 150;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    GraphBuild,
    UsageReplay,
    EdgeFanout,
    LiveSessions,
}

/// What one repetition produced.
pub enum Output {
    Graph(DiGraph),
    Summary(Box<DatasetSummary>),
    Fanout(FanoutReport),
    Breakdown(BreakdownReport),
}

/// A workload after set-up: each call is one repetition.
pub type Body = Box<dyn FnMut() -> Output>;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::GraphBuild,
        Workload::UsageReplay,
        Workload::EdgeFanout,
        Workload::LiveSessions,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GraphBuild => "graph_build",
            Workload::UsageReplay => "usage_replay",
            Workload::EdgeFanout => "edge_fanout",
            Workload::LiveSessions => "live_sessions",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What `units_per_s` counts on this workload.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::GraphBuild => "edges",
            Workload::UsageReplay => "broadcast records",
            Workload::EdgeFanout => "chunks served",
            Workload::LiveSessions => "viewer sessions",
        }
    }

    /// Untimed repetitions in a set-up pass. Two where one takes
    /// under a second and nothing else is set up, so that `setup_s` is
    /// over a second on every workload.
    pub fn warm_ups(self) -> usize {
        match self {
            Workload::GraphBuild | Workload::UsageReplay => 1,
            Workload::EdgeFanout | Workload::LiveSessions => 2,
        }
    }

    /// Times a run sets this workload up; `setup_s` is the fastest pass.
    /// More where a pass is short: one pass is a repetition or two of
    /// single-shot host time and moves with every contention burst.
    pub fn set_up_passes(self) -> usize {
        match self {
            Workload::GraphBuild | Workload::UsageReplay => 3,
            Workload::EdgeFanout | Workload::LiveSessions => 5,
        }
    }

    /// `(digest, units)` of one repetition at [`DEFAULT_SEED`].
    pub fn pin(self) -> (u64, u64) {
        match self {
            Workload::GraphBuild => (0xc42f_9680_688d_13b4, 5_689_094),
            Workload::UsageReplay => (0xf50d_caf0_eff7_c4d4, 503_987),
            Workload::EdgeFanout => (0xa184_c7d2_3e17_c9c8, 900_000),
            Workload::LiveSessions => (0x5a21_a47d_7ec4_0fb9, 500),
        }
    }

    /// Builds the workload's inputs from `seed` and returns its body.
    pub fn set_up(self, seed: u64) -> Body {
        match self {
            Workload::GraphBuild => Box::new(move || Output::Graph(build_graph(seed).0)),
            Workload::UsageReplay => {
                let scenario = scenario(seed);
                let graph = build_graph(seed).0;
                Box::new(move || Output::Summary(Box::new(replay(&scenario, &graph))))
            }
            Workload::EdgeFanout => {
                let config = fanout_config(seed);
                Box::new(move || Output::Fanout(run_fanout(&config, 1, &Telemetry::disabled())))
            }
            Workload::LiveSessions => {
                let config = breakdown_config(seed);
                Box::new(move || Output::Breakdown(breakdown::run(&config)))
            }
        }
    }
}

impl Output {
    /// Input-defined units of work in this output — never an internal
    /// event count, so batching events cannot inflate `units_per_s`.
    pub fn units(&self) -> u64 {
        match self {
            Output::Graph(g) => g.edge_count() as u64,
            Output::Summary(s) => s.broadcasts() + s.missed,
            Output::Fanout(r) => r.chunks_served(),
            // One RTMP and one HLS viewer per broadcast.
            Output::Breakdown(r) => 2 * r.rtmp_runs.len() as u64,
        }
    }

    pub fn digest(&self) -> u64 {
        match self {
            Output::Graph(g) => graph_digest(g),
            Output::Summary(s) => summary_digest(s),
            Output::Fanout(r) => fanout_digest(r),
            Output::Breakdown(r) => breakdown_digest(r),
        }
    }
}

/// Order-sensitive fold of `words` (`h ← splitmix64(h ⊕ word)`).
fn fold(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(0x5CA1_AB1E, |h, word| splitmix64(h ^ word))
}

pub fn graph_digest(g: &DiGraph) -> u64 {
    fold([g.adjacency_checksum(), g.degree_checksum()])
}

/// Digest over everything the usage figures can render: every public
/// accessor of the summary, the per-day and per-user tables, and all
/// four sketch series bit for bit.
pub fn summary_digest(s: &DatasetSummary) -> u64 {
    let scalars = [
        s.broadcasts(),
        s.missed,
        s.broadcasters(),
        s.total_views(),
        s.mobile_views(),
        s.unique_viewers(),
        s.hearts_total,
        s.comments_total,
        s.zero_viewer_broadcasts,
        s.hls_broadcasts,
    ];
    let daily = s.daily.iter().flat_map(|d| {
        [
            d.day as u64,
            d.broadcasts,
            d.active_viewers,
            d.active_broadcasters,
        ]
    });
    let per_user = s.user_views.iter().chain(&s.user_creates);
    let sketches = [&s.duration_secs, &s.viewers, &s.hearts, &s.comments]
        .into_iter()
        .flat_map(|sketch| sketch.series(SERIES_POINTS))
        .flat_map(|(x, y)| [x.to_bits(), y.to_bits()]);
    let exemplars = s
        .exemplars
        .iter()
        .flat_map(|m| [m.broadcast_hash, m.record.id]);
    fold(
        scalars
            .into_iter()
            .chain(daily)
            .chain(s.recorded_per_day.iter().copied())
            .chain(per_user.map(|&v| v as u64))
            .chain(sketches)
            .chain(exemplars),
    )
}

pub fn fanout_digest(r: &FanoutReport) -> u64 {
    fold([r.checksum, r.chunks_served()])
}

pub fn breakdown_digest(r: &BreakdownReport) -> u64 {
    fold(r.render().bytes().map(u64::from))
}

/// The Periscope study at [`STUDY_DIVISOR`].
pub fn scenario(seed: u64) -> ScenarioConfig {
    let base = ScenarioConfig::periscope_study();
    let scale = base.scale_divisor / STUDY_DIVISOR;
    ScenarioConfig {
        users: (base.users as f64 * scale) as usize,
        base_daily_broadcasts: base.base_daily_broadcasts * scale,
        scale_divisor: STUDY_DIVISOR,
        seed,
        ..base
    }
}

/// The scenario's follow graph, exactly as `generate_streaming` would
/// build it for itself, on one assembly worker.
pub fn build_graph(seed: u64) -> (DiGraph, GraphBuildStats) {
    let scenario = scenario(seed);
    DiGraph::generate_with(
        &GraphSpec::periscope().with_nodes(scenario.users),
        default_graph_seed(&scenario),
        &BuildOptions::new().with_workers(1),
    )
}

/// The single-pass generate → crawl → analyse replay over `graph`.
pub fn replay(scenario: &ScenarioConfig, graph: &DiGraph) -> DatasetSummary {
    run_campaign_streaming(
        generate_streaming_with_graph(scenario, graph),
        &CampaignConfig::periscope_study(),
        DEFAULT_EXEMPLARS,
    )
}

/// 6 POPs × 1,500 HLS viewers over a 300 s stream, roaming every 5 polls.
pub fn fanout_config(seed: u64) -> FanoutConfig {
    FanoutConfig {
        viewers_per_pop: 1_500,
        stream_secs: 300,
        seed,
        ..FanoutConfig::default()
    }
}

/// 250 controlled broadcasts, each with one RTMP viewer, one HLS viewer
/// and the 0.1 s crawler probe.
pub fn breakdown_config(seed: u64) -> BreakdownConfig {
    BreakdownConfig {
        repetitions: 250,
        seed,
        ..BreakdownConfig::default()
    }
}
