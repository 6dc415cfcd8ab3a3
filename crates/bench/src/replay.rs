//! Shared helpers for the streaming-replay benches: the scaled Periscope
//! scenario and a full-surface [`DatasetSummary`] digest.
//!
//! The digest deliberately folds *everything the figures can render* —
//! every counter, both per-user tables, the daily series, all four
//! sketch series, and the exemplar reservoir keys — so two summaries
//! with equal digests produce byte-identical Fig 1–6 / Table 1
//! artifacts. That is what lets one committed `u64` pin the whole
//! campaign fold.

use livescope_crawler::streaming::DatasetSummary;
use livescope_sim::rng::splitmix64;
use livescope_workload::ScenarioConfig;

/// Points per sketch series folded into [`summary_digest`]; matches the
/// densest figure rendering so no rendered bin escapes the digest.
const SERIES_POINTS: usize = 150;

/// The Periscope study at `divisor`: the paper-scale population and
/// daily-broadcast anchors divided by `divisor` instead of the default
/// 1000 (divisor 1 = 12M users, ~19.6M broadcasts over the 97 days).
pub fn scaled_periscope(divisor: f64) -> ScenarioConfig {
    let base = ScenarioConfig::periscope_study();
    let scale = base.scale_divisor / divisor;
    ScenarioConfig {
        users: (base.users as f64 * scale) as usize,
        base_daily_broadcasts: base.base_daily_broadcasts * scale,
        scale_divisor: divisor,
        ..base
    }
}

/// Order-sensitive splitmix64 fold (`h ← splitmix64(h ⊕ word)`).
fn fold(h: &mut u64, word: u64) {
    *h = splitmix64(*h ^ word);
}

/// Digest of the full observable surface of a finished campaign.
///
/// Covers every aggregate the usage experiment renders: scalar
/// counters, per-day ground truth and recorded series, both per-user
/// tables, all four quantile-sketch series (bit-exact, via
/// `f64::to_bits`), and the exemplar reservoir's `(hash, id)` keys in
/// reservoir order.
pub fn summary_digest(s: &DatasetSummary) -> u64 {
    let mut h = 0x5CA1AB1E_u64;
    for word in [
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
    ] {
        fold(&mut h, word);
    }
    for d in &s.daily {
        fold(&mut h, d.day as u64);
        fold(&mut h, d.broadcasts);
        fold(&mut h, d.active_viewers);
        fold(&mut h, d.active_broadcasters);
    }
    for &r in &s.recorded_per_day {
        fold(&mut h, r);
    }
    for &v in &s.user_views {
        fold(&mut h, v as u64);
    }
    for &c in &s.user_creates {
        fold(&mut h, c as u64);
    }
    for sketch in [&s.duration_secs, &s.viewers, &s.hearts, &s.comments] {
        for (x, y) in sketch.series(SERIES_POINTS) {
            fold(&mut h, x.to_bits());
            fold(&mut h, y.to_bits());
        }
    }
    for m in &s.exemplars {
        fold(&mut h, m.broadcast_hash);
        fold(&mut h, m.record.id);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use livescope_crawler::streaming::DEFAULT_EXEMPLARS;
    use livescope_crawler::{run_campaign_streaming, CampaignConfig};
    use livescope_workload::generate_streaming;

    /// Absolute pins, captured before the guide-table pick existed:
    /// the oracle tests compare paths that all share the weighted pick,
    /// so only a committed value (here, and `bench_replay`'s divisor-1000
    /// record checksum) can see the pick itself change.
    /// Meerkat rides along because its propensity tables (σ = 1.0,
    /// 0.70 inactive creators) have a different shape from Periscope's.
    #[test]
    fn small_replay_digests_match_the_committed_pins() {
        let periscope = ScenarioConfig {
            days: 21,
            users: 3_000,
            base_daily_broadcasts: 60.0,
            ..ScenarioConfig::periscope_study()
        };
        let meerkat = ScenarioConfig {
            days: 12,
            users: 900,
            ..ScenarioConfig::meerkat_study()
        };
        let digest = |scenario: &ScenarioConfig, campaign: &CampaignConfig| {
            let summary =
                run_campaign_streaming(generate_streaming(scenario), campaign, DEFAULT_EXEMPLARS);
            assert!(summary.mobile_views() > 1_000, "pin must cover real picks");
            summary_digest(&summary)
        };
        let got = [
            digest(&periscope, &CampaignConfig::periscope_study()),
            digest(&meerkat, &CampaignConfig::meerkat_study()),
        ];
        assert_eq!(
            got.map(|d| format!("{d:#018x}")),
            ["0x453b34032a897cb8", "0xf7d40d8b0818f95a"],
            "[Periscope, Meerkat] replay digests drifted from the committed pins"
        );
    }

    /// The campaign driver itself at the default study scale: the
    /// divisor-1000 Periscope replay's full-surface digest and record
    /// count, the values `BENCH_replay.json`'s divisor-1000 row holds for
    /// `bench_replay`'s own record-by-record fold.
    #[test]
    fn divisor_1000_campaign_matches_the_committed_digest() {
        let summary = run_campaign_streaming(
            generate_streaming(&scaled_periscope(1_000.0)),
            &CampaignConfig::periscope_study(),
            DEFAULT_EXEMPLARS,
        );
        assert_eq!(summary.broadcasts() + summary.missed, 20_344);
        assert_eq!(
            format!("{:#018x}", summary_digest(&summary)),
            "0x07f11cb34fce318d"
        );
    }
}
