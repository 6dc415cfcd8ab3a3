//! Crawler fidelity: the measured dataset must faithfully reflect ground
//! truth up to the documented losses, and coverage must improve
//! monotonically with crawl rate.

use std::collections::BTreeMap;

use livescope_crawler::campaign::CampaignConfig;
use livescope_crawler::coverage::{run_coverage, CoverageConfig};
use livescope_crawler::run_campaign_streaming;
use livescope_crawler::streaming::DatasetSummary;
use livescope_sim::SimDuration;
use livescope_telemetry::Telemetry;
use livescope_workload::{generate_streaming, BroadcastRecord, ScenarioConfig, WorkloadSummary};

fn scenario() -> ScenarioConfig {
    ScenarioConfig {
        days: 14,
        users: 1_500,
        base_daily_broadcasts: 60.0,
        ..ScenarioConfig::periscope_study()
    }
}

/// Ground truth: every generated record and the stream's ledger.
fn ground_truth() -> (Vec<BroadcastRecord>, WorkloadSummary) {
    let mut stream = generate_streaming(&scenario());
    let records = (&mut stream).collect();
    (records, stream.into_summary())
}

/// The crawler's dataset of the same study. The exemplar reservoir is
/// larger than the study, so it holds every measured record.
fn crawl(config: &CampaignConfig) -> DatasetSummary {
    let d = run_campaign_streaming(generate_streaming(&scenario()), config, 4_096);
    assert_eq!(
        d.exemplars.len() as u64,
        d.broadcasts(),
        "reservoir too small"
    );
    d
}

#[test]
fn dataset_equals_ground_truth_without_outage() {
    let (records, truth) = ground_truth();
    let d = crawl(&CampaignConfig::meerkat_study());
    assert_eq!(d.broadcasts(), truth.total_broadcasts());
    assert_eq!(
        d.total_views(),
        records.iter().map(|r| r.viewers).sum::<u64>()
    );
    assert_eq!(d.mobile_views(), truth.mobile_views());
    assert_eq!(d.unique_viewers(), truth.unique_viewers());
    assert_eq!(d.broadcasters(), truth.unique_broadcasters());
    assert_eq!(d.missed, 0);
}

#[test]
fn outage_loss_is_confined_to_the_window_and_documented() {
    let (records, truth) = ground_truth();
    let config = CampaignConfig {
        outage_days: Some((5, 7)),
        outage_loss: 0.8,
        ..CampaignConfig::periscope_study()
    };
    let d = crawl(&config);
    // Outside the window: byte-for-byte complete.
    for day in (0..14u32).filter(|d| !(5..=7).contains(d)) {
        let truth: Vec<&BroadcastRecord> = records.iter().filter(|b| b.day == day).collect();
        let mut measured: Vec<&BroadcastRecord> = d
            .exemplars
            .iter()
            .map(|m| &m.record)
            .filter(|r| r.day == day)
            .collect();
        measured.sort_by_key(|r| r.id);
        assert_eq!(truth, measured, "day {day}");
    }
    // Inside: losses accounted.
    assert_eq!(d.broadcasts() + d.missed, truth.total_broadcasts());
    let truth_in_window = records.iter().filter(|b| (5..=7).contains(&b.day)).count() as f64;
    assert!(d.loss_fraction(truth.total_broadcasts()) > 0.0);
    let window_loss = d.missed as f64 / truth_in_window;
    assert!((window_loss - 0.8).abs() < 0.1, "window loss {window_loss}");
}

#[test]
fn anonymization_preserves_linkage_but_not_identity() {
    let (records, _) = ground_truth();
    let d = crawl(&CampaignConfig::periscope_study());
    // Same broadcaster ⇒ same hash (longitudinal linkage survives), and
    // the hash is not the raw id.
    let mut seen: BTreeMap<u32, u64> = BTreeMap::new();
    for r in &d.exemplars {
        let entry = seen
            .entry(r.record.broadcaster)
            .or_insert(r.broadcaster_hash);
        assert_eq!(*entry, r.broadcaster_hash, "hash must be stable per user");
        assert_ne!(r.broadcaster_hash, r.record.broadcaster as u64);
    }
    // Every generated broadcaster was measured at least once here.
    let mut broadcasters: Vec<u32> = records.iter().map(|r| r.broadcaster).collect();
    broadcasters.sort_unstable();
    broadcasters.dedup();
    assert_eq!(broadcasters.len(), seen.len());
    // Distinct broadcasters ⇒ distinct hashes (no collisions at this scale).
    let mut hashes: Vec<u64> = seen.values().copied().collect();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), seen.len());
}

#[test]
fn coverage_rises_monotonically_with_crawl_rate() {
    let coverage_at = |accounts: usize| {
        run_coverage(
            &CoverageConfig {
                accounts,
                account_refresh: SimDuration::from_secs(60),
                arrivals_per_sec: 1.5,
                duration_median_s: 60.0,
                duration_sigma: 0.8,
                horizon: SimDuration::from_secs(500),
                seed: 99,
            },
            &Telemetry::disabled(),
        )
        .coverage
    };
    let slow = coverage_at(1);
    let medium = coverage_at(6);
    let fast = coverage_at(60);
    assert!(slow < medium + 0.02, "slow {slow} vs medium {medium}");
    assert!(medium <= fast + 0.01, "medium {medium} vs fast {fast}");
    assert!(fast > 0.98, "fast crawler should see everything: {fast}");
    assert!(
        slow < 0.9,
        "a 60s single crawler should miss plenty: {slow}"
    );
}

#[test]
fn discovery_latency_scales_with_effective_refresh() {
    let latency_at = |accounts: usize| {
        run_coverage(
            &CoverageConfig {
                accounts,
                account_refresh: SimDuration::from_secs(20),
                arrivals_per_sec: 1.0,
                duration_median_s: 300.0,
                duration_sigma: 0.5,
                horizon: SimDuration::from_secs(600),
                seed: 5,
            },
            &Telemetry::disabled(),
        )
        .mean_discovery_latency_s
    };
    let one = latency_at(1); // effective 20 s
    let twenty = latency_at(20); // effective 1 s
    assert!(
        one > 3.0 * twenty,
        "latency should scale with refresh: {one} vs {twenty}"
    );
}
