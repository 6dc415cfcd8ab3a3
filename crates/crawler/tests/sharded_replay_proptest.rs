//! Property test for the campaign's one driver: over small random
//! studies — trailing zero-broadcast days, outage windows on the first
//! and last day, losses of 0 and 1, more shards than records —
//! `run_campaign_sharded` must produce exactly the dataset of the
//! sequential oracle, field by field, for every shard count.

use livescope_crawler::streaming::DatasetSummary;
use livescope_crawler::{run_campaign_sharded, CampaignConfig, OutageFilter, StreamingCampaign};
use livescope_workload::{generate_streaming, ScenarioConfig};
use proptest::prelude::*;

/// The sequential oracle: crawl the stream record by record and fold it
/// into one accumulator.
fn sequential(
    scenario: &ScenarioConfig,
    campaign: &CampaignConfig,
    exemplars: usize,
) -> DatasetSummary {
    let mut stream = generate_streaming(scenario);
    let mut filter = OutageFilter::new(campaign);
    let mut acc = StreamingCampaign::new(campaign, scenario.days, scenario.users, exemplars);
    for record in &mut stream {
        if filter.observes(record.day) {
            acc.observe(record);
        } else {
            acc.miss();
        }
    }
    acc.finish(stream.into_summary())
}

/// Every field of a summary; sketches as their rendered series (their
/// one order-sensitive float, the running `sum`, is never rendered).
fn fields(s: &DatasetSummary) -> impl PartialEq + std::fmt::Debug + '_ {
    let scalars = [
        s.broadcasts(),
        s.missed,
        s.broadcasters(),
        s.total_views(),
        s.mobile_views(),
        s.hearts_total,
        s.comments_total,
        s.zero_viewer_broadcasts,
        s.hls_broadcasts,
    ];
    let sketches = [&s.duration_secs, &s.viewers, &s.hearts, &s.comments].map(|k| k.series(150));
    let tables = (
        &s.daily,
        &s.user_views,
        &s.user_creates,
        &s.recorded_per_day,
    );
    (scalars, tables, sketches, &s.exemplars)
}

proptest! {
    #[test]
    fn sharded_replay_equals_the_sequential_oracle(
        days in 1u32..9,
        users in 2usize..301,
        base in 0.01f64..20.0,
        meerkat in any::<bool>(),
        seed in any::<u64>(),
        window in proptest::option::of((0u32..10, 0u32..10)),
        loss in prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0],
        workers in 1usize..9,
        exemplars in 0usize..13,
    ) {
        let preset = if meerkat {
            ScenarioConfig::meerkat_study()
        } else {
            ScenarioConfig::periscope_study()
        };
        let scenario = ScenarioConfig {
            days,
            users,
            base_daily_broadcasts: base,
            // A population this small must not come out all-inactive.
            viewer_inactive_fraction: 0.0,
            creator_inactive_fraction: 0.0,
            seed,
            ..preset
        };
        // Windows clamp onto the study, so day 0 and the last day are
        // common endpoints.
        let outage_days = window.map(|(a, b)| (a.min(b).min(days - 1), a.max(b).min(days - 1)));
        let campaign = CampaignConfig {
            outage_days,
            outage_loss: loss,
            seed: seed.rotate_left(17),
            ..CampaignConfig::periscope_study()
        };
        let oracle = sequential(&scenario, &campaign, exemplars);
        let sharded =
            run_campaign_sharded(generate_streaming(&scenario), &campaign, workers, exemplars);
        prop_assert_eq!(fields(&sharded), fields(&oracle));
        prop_assert_eq!(sharded.daily.len(), days as usize);
    }
}
