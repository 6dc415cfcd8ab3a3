//! Divisor-1000 byte-identity regression: the streaming replay must
//! render Table 1 and every Fig 1–6 artifact byte-for-byte identical to
//! a materializing replay, at the default study scale (`scale_divisor`
//! 1000 — the acceptance bar in `crates/workload/DESIGN.md`).

use livescope_core::usage::{run, UsageConfig, UsageReport};
use livescope_crawler::streaming::{DatasetSummary, DEFAULT_EXEMPLARS};
use livescope_crawler::{CampaignConfig, OutageFilter, StreamingCampaign};
use livescope_workload::{generate_streaming, BroadcastRecord, ScenarioConfig};

/// One campaign on the materializing path: collect every record first,
/// then crawl the full dataset and fold it through the same accumulator
/// the streaming path uses.
fn materialized(scenario: &ScenarioConfig, campaign: &CampaignConfig) -> DatasetSummary {
    let mut stream = generate_streaming(scenario);
    let records: Vec<BroadcastRecord> = (&mut stream).collect();
    let summary = stream.into_summary();
    let mut filter = OutageFilter::new(campaign);
    let mut acc =
        StreamingCampaign::new(campaign, scenario.days, scenario.users, DEFAULT_EXEMPLARS);
    for record in records {
        if filter.observes(record.day) {
            acc.observe(record);
        } else {
            acc.miss();
        }
    }
    acc.finish(summary)
}

/// The oracle: both campaigns on the materializing path.
fn run_materialized(config: &UsageConfig) -> UsageReport {
    UsageReport {
        periscope: materialized(&config.periscope, &config.periscope_campaign),
        meerkat: materialized(&config.meerkat, &config.meerkat_campaign),
        periscope_scale: config.periscope.scale_divisor,
        meerkat_scale: config.meerkat.scale_divisor,
    }
}

#[test]
fn divisor_1000_streaming_output_is_byte_identical() {
    let config = UsageConfig::default();
    assert_eq!(config.periscope.scale_divisor, 1000.0);
    let streamed = run(&config);
    let materialized = run_materialized(&config);

    assert_eq!(streamed.tab1(), materialized.tab1(), "Table 1 diverged");
    for (s, m) in [
        (streamed.fig1(), materialized.fig1()),
        (streamed.fig2(), materialized.fig2()),
        (streamed.fig3(), materialized.fig3()),
        (streamed.fig4(), materialized.fig4()),
        (streamed.fig5(), materialized.fig5()),
        (streamed.fig6(), materialized.fig6()),
    ] {
        // Every artifact shape the bench bins emit: terminal chart, CSV
        // sidecar, JSON sidecar.
        assert_eq!(
            s.render_ascii(84, 20),
            m.render_ascii(84, 20),
            "{}: ascii render diverged",
            s.title
        );
        assert_eq!(s.to_csv(), m.to_csv(), "{}: csv diverged", s.title);
        assert_eq!(s.to_json(), m.to_json(), "{}: json diverged", s.title);
    }

    // The paper's headline invariants hold on the streaming aggregates.
    assert!(streamed.periscope.missed > 0, "outage should lose records");
    assert!(
        streamed.periscope.duration_secs.fraction_at_or_below(600.0) > 0.75,
        "most broadcasts should be under 10 minutes"
    );
}
