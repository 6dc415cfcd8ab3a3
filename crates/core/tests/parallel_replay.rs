//! K-shard byte-identity regression (DESIGN.md §13): the sharded
//! data-parallel replay must render Table 1 and every Fig 1–6 artifact
//! byte-for-byte identical to the single-shard streaming path, for
//! K ∈ {1, 2, 6}, run twice each, at both the default divisor-1000
//! scale and divisor 100. K = 1 folds inline on the test thread, K > 1
//! on scoped worker threads — which must not change a byte.

#![forbid(unsafe_code)]

use livescope_core::usage::{run, UsageConfig, UsageReport};
use livescope_crawler::streaming::DEFAULT_EXEMPLARS;
use livescope_crawler::{run_campaign_sharded_with_graph, run_campaign_streaming};
use livescope_graph::DiGraph;
use livescope_workload::{
    default_graph_seed, default_graph_spec, generate_streaming_with_graph, ScenarioConfig,
};

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
/// single-shard streaming replay as the reference, then asserts the
/// K-shard replay renders the same bytes for K ∈ {1, 2, 6}, twice each.
/// Graphs are shared across all runs to keep the test honest about what
/// it exercises (the fold, not graph construction). Returns the
/// reference render.
fn assert_sharded_matches_streaming(config: &UsageConfig) -> Vec<String> {
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
    let reference = render_all(&report(
        run_campaign_streaming(
            generate_streaming_with_graph(&config.periscope, &p_graph),
            &config.periscope_campaign,
            DEFAULT_EXEMPLARS,
        ),
        run_campaign_streaming(
            generate_streaming_with_graph(&config.meerkat, &m_graph),
            &config.meerkat_campaign,
            DEFAULT_EXEMPLARS,
        ),
    ));
    let divisor = config.periscope.scale_divisor;
    for k in [1usize, 2, 6] {
        for rep in 0..2 {
            let sharded = render_all(&report(
                run_campaign_sharded_with_graph(
                    &config.periscope,
                    &p_graph,
                    &config.periscope_campaign,
                    k,
                    DEFAULT_EXEMPLARS,
                )
                .0,
                run_campaign_sharded_with_graph(
                    &config.meerkat,
                    &m_graph,
                    &config.meerkat_campaign,
                    k,
                    DEFAULT_EXEMPLARS,
                )
                .0,
            ));
            assert_eq!(
                sharded, reference,
                "divisor-{divisor} K={k} rep={rep} diverged"
            );
        }
    }
    reference
}

#[test]
fn divisor_1000_sharded_output_is_byte_identical_for_every_k() {
    let config = UsageConfig::default();
    assert_eq!(config.periscope.scale_divisor, 1000.0);
    let reference = assert_sharded_matches_streaming(&config);
    // The figure bins' entry point (stream-owned graphs) renders the
    // same bytes as the shared-graph reference.
    assert_eq!(render_all(&run(&config)), reference);
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
    assert_sharded_matches_streaming(&config);
}
