//! K-shard byte-identity regression (`crates/crawler/DESIGN.md`): the
//! campaign's one driver must render Table 1 and every Fig 1–6 artifact
//! byte-for-byte identical to a record-by-record sequential fold, for
//! K ∈ {1, 2, 6}, run twice each, at both the default divisor-1000
//! scale and divisor 100. K = 1 folds inline on the test thread, K > 1
//! on scoped worker threads — which must not change a byte.

use livescope_core::usage::{run, UsageConfig, UsageReport};
use livescope_crawler::streaming::{DatasetSummary, DEFAULT_EXEMPLARS};
use livescope_crawler::{run_campaign_sharded, CampaignConfig, OutageFilter, StreamingCampaign};
use livescope_graph::DiGraph;
use livescope_workload::{
    default_graph_seed, default_graph_spec, generate_streaming_with_graph, ScenarioConfig,
};

/// The oracle: crawl the stream record by record and fold it into one
/// accumulator.
fn sequential(
    scenario: &ScenarioConfig,
    graph: &DiGraph,
    campaign: &CampaignConfig,
) -> DatasetSummary {
    let mut stream = generate_streaming_with_graph(scenario, graph);
    let mut filter = OutageFilter::new(campaign);
    let mut acc =
        StreamingCampaign::new(campaign, scenario.days, scenario.users, DEFAULT_EXEMPLARS);
    for record in &mut stream {
        if filter.observes(record.day) {
            acc.observe(record);
        } else {
            acc.miss();
        }
    }
    acc.finish(stream.into_summary())
}

/// Every rendered artifact byte the figure bins emit: Table 1 plus each
/// figure's terminal chart, CSV sidecar, and JSON sidecar.
fn render_all(report: &UsageReport) -> Vec<String> {
    let mut out = vec![report.tab1()];
    for fig in [
        report.fig1(),
        report.fig2(),
        report.fig3(),
        report.fig4(),
        report.fig5(),
        report.fig6(),
    ] {
        out.push(fig.render_ascii(84, 20));
        out.push(fig.to_csv());
        out.push(fig.to_json());
    }
    out
}

/// Builds each scenario's default follow graph once, renders the
/// sequential oracle as the reference, then asserts the K-shard replay
/// renders the same bytes for K ∈ {1, 2, 6}, twice each. Graphs are
/// shared across all runs to keep the test honest about what it
/// exercises (the fold, not graph construction). Returns the oracle.
fn assert_sharded_matches_sequential(config: &UsageConfig) -> UsageReport {
    let p_graph = DiGraph::generate(
        &default_graph_spec(&config.periscope),
        default_graph_seed(&config.periscope),
    );
    let m_graph = DiGraph::generate(
        &default_graph_spec(&config.meerkat),
        default_graph_seed(&config.meerkat),
    );
    let report = |p, m| UsageReport {
        periscope: p,
        meerkat: m,
        periscope_scale: config.periscope.scale_divisor,
        meerkat_scale: config.meerkat.scale_divisor,
    };
    let oracle = report(
        sequential(&config.periscope, &p_graph, &config.periscope_campaign),
        sequential(&config.meerkat, &m_graph, &config.meerkat_campaign),
    );
    let reference = render_all(&oracle);
    let divisor = config.periscope.scale_divisor;
    let sharded = |scenario, graph, campaign, k| {
        run_campaign_sharded(
            generate_streaming_with_graph(scenario, graph),
            campaign,
            k,
            DEFAULT_EXEMPLARS,
        )
    };
    for k in [1usize, 2, 6] {
        for rep in 0..2 {
            let got = render_all(&report(
                sharded(&config.periscope, &p_graph, &config.periscope_campaign, k),
                sharded(&config.meerkat, &m_graph, &config.meerkat_campaign, k),
            ));
            assert_eq!(got, reference, "divisor-{divisor} K={k} rep={rep} diverged");
        }
    }
    oracle
}

#[test]
fn divisor_1000_sharded_output_is_byte_identical_for_every_k() {
    let config = UsageConfig::default();
    assert_eq!(config.periscope.scale_divisor, 1000.0);
    let oracle = assert_sharded_matches_sequential(&config);
    // The figure bins' entry point (stream-owned graphs, one shard)
    // renders the same bytes as the shared-graph oracle.
    assert_eq!(render_all(&run(&config)), render_all(&oracle));

    // The paper's headline invariants hold on the streaming aggregates.
    assert!(oracle.periscope.missed > 0, "outage should lose records");
    assert!(
        oracle.periscope.duration_secs.fraction_at_or_below(600.0) > 0.75,
        "most broadcasts should be under 10 minutes"
    );
}

#[test]
fn divisor_100_sharded_output_is_byte_identical_for_every_k() {
    // Periscope rescaled to divisor 100 (~10× the default record count);
    // Meerkat's study preset is divisor 100 already.
    let base = ScenarioConfig::periscope_study();
    let rescale = base.scale_divisor / 100.0;
    let periscope = ScenarioConfig {
        users: (base.users as f64 * rescale) as usize,
        base_daily_broadcasts: base.base_daily_broadcasts * rescale,
        scale_divisor: 100.0,
        ..base
    };
    let config = UsageConfig {
        periscope,
        ..UsageConfig::default()
    };
    assert_eq!(config.meerkat.scale_divisor, 100.0);
    assert_sharded_matches_sequential(&config);
}
