//! The measurement campaign: what the crawler *recorded* of a workload.
//!
//! The generated workload is ground truth; the dataset the paper analyzed
//! is the crawler's view of it — which missed broadcasts during the
//! Aug 7–9 communication outage ("roughly 4.5% of the broadcasts during
//! this period") and stored only anonymized identifiers.
//!
//! [`OutageFilter`] is stateful — its loss coin flips consume a
//! sequential RNG — so the campaign fold asks it once per record, in
//! record-id order (`crates/crawler/DESIGN.md`). [`MeasuredBroadcast`]
//! identifiers come from stateless salted hashes of the record ids, so
//! anonymization depends on nothing but the record.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use livescope_sim::rng::splitmix64;
use livescope_workload::BroadcastRecord;

/// Campaign knobs layered on a workload.
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Outage window as day indexes `[from, to]`, inclusive, if any
    /// (Periscope study: days 84–86 ≙ Aug 7–9).
    pub outage_days: Option<(u32, u32)>,
    /// Fraction of the outage window's broadcasts lost.
    pub outage_loss: f64,
    /// Salt for identifier anonymization.
    pub anonymization_salt: u64,
    /// Seed for the outage-loss coin flips.
    pub seed: u64,
}

impl CampaignConfig {
    /// The Periscope study's crawler reality.
    pub fn periscope_study() -> Self {
        CampaignConfig {
            outage_days: Some((84, 86)),
            // Lost "roughly 4.5%" of that period's broadcasts: the crawler
            // was down for part of the window, not all of it.
            outage_loss: 0.045,
            anonymization_salt: 0x5EED,
            seed: 0xCAFE,
        }
    }

    /// Meerkat: no outage (the study ended early instead, at Meerkat's
    /// request).
    pub fn meerkat_study() -> Self {
        CampaignConfig {
            outage_days: None,
            outage_loss: 0.0,
            anonymization_salt: 0x5EED,
            seed: 0xCAFE,
        }
    }

    /// Sanity-checks the knobs; [`OutageFilter::new`] calls this first.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.outage_loss) {
            return Err(format!(
                "outage_loss must be in [0,1], got {}",
                self.outage_loss
            ));
        }
        if let Some((from, to)) = self.outage_days {
            if from > to {
                return Err(format!("outage_days must run forward, got ({from}, {to})"));
            }
        }
        Ok(())
    }
}

/// The crawler's observation filter: decides, per broadcast in stream
/// order, whether the crawler recorded it or lost it to the outage. It
/// makes one RNG draw per in-outage broadcast and none outside the
/// window, so a given seed loses the same broadcasts on every run.
#[derive(Clone, Debug)]
pub struct OutageFilter {
    rng: SmallRng,
    outage_days: Option<(u32, u32)>,
    outage_loss: f64,
}

impl OutageFilter {
    /// Sets up the filter for a campaign. Panics on an invalid config.
    pub fn new(config: &CampaignConfig) -> Self {
        config.validate().expect("invalid CampaignConfig");
        OutageFilter {
            rng: SmallRng::seed_from_u64(config.seed),
            outage_days: config.outage_days,
            outage_loss: config.outage_loss,
        }
    }

    /// True when the crawler records a broadcast on `day`. Must be called
    /// once per broadcast in stream order — it advances the loss RNG for
    /// in-outage days.
    pub fn observes(&mut self, day: u32) -> bool {
        let in_outage = self
            .outage_days
            .is_some_and(|(from, to)| day >= from && day <= to);
        !(in_outage && self.rng.gen_bool(self.outage_loss))
    }
}

/// One anonymized broadcast record in the measured dataset.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MeasuredBroadcast {
    /// Anonymized broadcast id.
    pub broadcast_hash: u64,
    /// Anonymized broadcaster id.
    pub broadcaster_hash: u64,
    /// The underlying broadcast record as crawled.
    pub record: BroadcastRecord,
}

/// Keyed one-way identifier hash. Not reversible without the salt; stable
/// within a campaign so longitudinal analyses still link records.
pub fn anonymize(id: u64, salt: u64) -> u64 {
    splitmix64(splitmix64(id ^ salt).wrapping_add(salt.rotate_left(23)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::{run_campaign_streaming, DatasetSummary};
    use livescope_workload::{generate_streaming, ScenarioConfig, WorkloadSummary};

    fn small_scenario() -> ScenarioConfig {
        ScenarioConfig {
            days: 10,
            users: 1_000,
            base_daily_broadcasts: 50.0,
            ..ScenarioConfig::periscope_study()
        }
    }

    /// Ground truth: every generated record and the stream's ledger.
    fn ground_truth() -> (Vec<BroadcastRecord>, WorkloadSummary) {
        let mut stream = generate_streaming(&small_scenario());
        let records = (&mut stream).collect();
        (records, stream.into_summary())
    }

    /// The crawler's view of the same study, keeping up to `exemplars`
    /// measured records.
    fn crawl(config: &CampaignConfig, exemplars: usize) -> DatasetSummary {
        run_campaign_streaming(generate_streaming(&small_scenario()), config, exemplars)
    }

    #[test]
    fn no_outage_records_everything() {
        let (records, truth) = ground_truth();
        let d = crawl(&CampaignConfig::meerkat_study(), 4);
        assert_eq!(d.broadcasts(), truth.total_broadcasts());
        assert_eq!(d.missed, 0);
        assert_eq!(
            d.total_views(),
            records.iter().map(|r| r.viewers).sum::<u64>()
        );
        assert_eq!(d.unique_viewers(), truth.unique_viewers());
    }

    #[test]
    fn outage_drops_roughly_the_configured_fraction() {
        let (records, truth) = ground_truth();
        let config = CampaignConfig {
            outage_days: Some((3, 5)),
            outage_loss: 0.5,
            ..CampaignConfig::periscope_study()
        };
        let d = crawl(&config, 4);
        let in_window = records.iter().filter(|b| (3..=5).contains(&b.day)).count() as u64;
        assert!(in_window > 50, "window too small to test");
        let lost = d.missed as f64 / in_window as f64;
        assert!((lost - 0.5).abs() < 0.1, "window loss fraction {lost}");
        // Nothing outside the window is lost.
        assert_eq!(d.broadcasts() + d.missed, truth.total_broadcasts());
    }

    #[test]
    fn anonymization_is_stable_salted_and_collision_light() {
        let a1 = anonymize(42, 1);
        let a2 = anonymize(42, 1);
        let b = anonymize(42, 2);
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        // No collisions over a realistic id range.
        let mut hashes: Vec<u64> = (0..100_000u64).map(|i| anonymize(i, 7)).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 100_000);
    }

    #[test]
    fn raw_ids_do_not_appear_in_measured_records() {
        // A reservoir larger than the study keeps every measured record.
        let d = crawl(&CampaignConfig::periscope_study(), 4_096);
        assert_eq!(d.exemplars.len() as u64, d.broadcasts());
        // The hash must not equal the raw id for any realistic record (a
        // fixed point would mean an identifier leaked through).
        for r in &d.exemplars {
            assert_ne!(r.broadcast_hash, r.record.id);
            assert_ne!(r.broadcaster_hash, r.record.broadcaster as u64);
        }
    }

    #[test]
    fn distinct_broadcasters_match_ground_truth_without_outage() {
        let (_, truth) = ground_truth();
        let d = crawl(&CampaignConfig::meerkat_study(), 4);
        assert_eq!(d.broadcasters(), truth.unique_broadcasters());
    }

    #[test]
    fn study_presets_validate() {
        CampaignConfig::periscope_study().validate().unwrap();
        CampaignConfig::meerkat_study().validate().unwrap();
    }

    #[test]
    fn outage_loss_outside_the_unit_interval_is_rejected() {
        for loss in [1.5, -0.1, f64::NAN, f64::INFINITY] {
            let config = CampaignConfig {
                outage_loss: loss,
                ..CampaignConfig::periscope_study()
            };
            let err = config.validate().unwrap_err();
            assert!(err.contains("outage_loss"), "{loss}: {err}");
        }
        for loss in [0.0, 1.0] {
            let config = CampaignConfig {
                outage_loss: loss,
                ..CampaignConfig::periscope_study()
            };
            config.validate().unwrap();
        }
    }

    #[test]
    fn inverted_outage_window_is_rejected() {
        let config = CampaignConfig {
            outage_days: Some((86, 84)),
            ..CampaignConfig::periscope_study()
        };
        assert!(config.validate().unwrap_err().contains("outage_days"));
        let one_day = CampaignConfig {
            outage_days: Some((84, 84)),
            ..CampaignConfig::periscope_study()
        };
        one_day.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "invalid CampaignConfig")]
    fn outage_filter_refuses_an_invalid_config() {
        OutageFilter::new(&CampaignConfig {
            outage_loss: f64::NAN,
            ..CampaignConfig::periscope_study()
        });
    }
}
