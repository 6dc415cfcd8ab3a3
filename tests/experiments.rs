//! Integration sweep over every experiment: each one runs at reduced
//! scale and must reproduce its paper claim's *shape*. These are the
//! "does the whole reproduction hang together" tests; the per-module unit
//! tests cover the details.

use livescope_core::{breakdown, buffering, geolocation, polling, scalability, social, usage};
use livescope_crawler::coverage;
use livescope_sim::SimDuration;
use livescope_telemetry::Telemetry;

#[test]
fn fig11_hls_vs_rtmp_delay_gap() {
    let report = breakdown::run(&breakdown::BreakdownConfig {
        repetitions: 3,
        stream_secs: 40,
        ..breakdown::BreakdownConfig::default()
    });
    // The paper's headline numbers: RTMP ≈1.4 s, HLS ≈11.7 s.
    assert!(
        (0.5..3.0).contains(&report.rtmp.total_s()),
        "{:?}",
        report.rtmp
    );
    assert!(
        (8.0..15.0).contains(&report.hls.total_s()),
        "{:?}",
        report.hls
    );
    // Chunking ≈ chunk duration; buffering dominates; W2F is smallest.
    assert!((2.5..3.5).contains(&report.hls.chunking_s));
    let h = &report.hls;
    assert!(h.buffering_s > h.chunking_s && h.chunking_s > h.polling_s);
    assert!(h.polling_s > h.wowza2fastly_s && h.wowza2fastly_s > 0.0);
}

#[test]
fn fig12_13_polling_interval_beat_effect() {
    let report = polling::run(&polling::PollingConfig {
        broadcasts: 1_500,
        ..polling::PollingConfig::default()
    });
    let spread = |interval: f64| {
        let cdf = &report
            .mean_cdfs
            .iter()
            .find(|(i, _)| *i == interval)
            .unwrap()
            .1;
        cdf.quantile(0.9) - cdf.quantile(0.1)
    };
    assert!(spread(3.0) > 2.0 * spread(2.0));
    assert!(spread(3.0) > 2.0 * spread(4.0));
}

#[test]
fn fig14_rtmp_cost_dwarfs_hls_cost() {
    let report = scalability::run(&scalability::ScalabilityConfig {
        viewer_counts: vec![100, 500],
        stream_secs: 10,
        ..scalability::ScalabilityConfig::default()
    });
    assert!(
        report.peak_op_ratio() > 10.0,
        "ratio {}",
        report.peak_op_ratio()
    );
    // Gap widens from 100 to 500 viewers.
    let gap = |i: usize| report.rtmp[i].operations - report.hls[i].operations;
    assert!(gap(1) > 4 * gap(0));
}

#[test]
fn fig15_distance_ordering_and_gateway_gap() {
    let report = geolocation::run(&geolocation::GeolocationConfig {
        samples_per_pair: 10,
        ..geolocation::GeolocationConfig::default()
    });
    assert!(report.gateway_gap_s().unwrap() > 0.2);
    assert_eq!(report.buckets.len(), 5);
}

#[test]
fn fig17_six_second_buffer_matches_nine_at_lower_delay() {
    let report = buffering::run(&buffering::BufferingConfig {
        broadcasts: 300,
        ..buffering::BufferingConfig::default()
    });
    let p6 = report.hls_at(6.0).unwrap();
    let p9 = report.hls_at(9.0).unwrap();
    assert!(p6.stall_ratio.quantile(0.9) - p9.stall_ratio.quantile(0.9) < 0.03);
    let saving = p9.avg_buffering.median() - p6.avg_buffering.median();
    assert!((1.0..5.0).contains(&saving), "saving {saving}");
}

#[test]
fn table2_structure_contrasts() {
    let report = social::run_table2(&social::SocialConfig {
        periscope_nodes: 3_000,
        facebook_nodes: 2_500,
        twitter_nodes: 3_000,
        ..social::SocialConfig::default()
    });
    assert!(report.periscope.assortativity < 0.0);
    assert!(report.facebook.assortativity > 0.0);
    assert!(report.twitter.assortativity < report.periscope.assortativity);
    assert!(report.facebook.clustering > report.twitter.clustering);
}

#[test]
fn table1_and_growth_trends() {
    let config = usage::UsageConfig {
        periscope: livescope_workload::ScenarioConfig {
            days: 28,
            users: 3_000,
            base_daily_broadcasts: 50.0,
            android_launch_day: Some(7),
            ..livescope_workload::ScenarioConfig::periscope_study()
        },
        meerkat: livescope_workload::ScenarioConfig {
            days: 28,
            users: 900,
            base_daily_broadcasts: 40.0,
            ..livescope_workload::ScenarioConfig::meerkat_study()
        },
        ..usage::UsageConfig::default()
    };
    let report = usage::run(&config);
    // Growth/decline shapes.
    let trend = |ds: &livescope_crawler::DatasetSummary| {
        let head: u64 = ds.daily[..7].iter().map(|d| d.broadcasts).sum();
        let tail: u64 = ds.daily[21..].iter().map(|d| d.broadcasts).sum();
        tail as f64 / head.max(1) as f64
    };
    assert!(trend(&report.periscope) > 1.3);
    assert!(trend(&report.meerkat) < 1.0);
    // Table renders and the comment cap shows up as hearts >> comments.
    assert!(report.tab1().contains("Periscope"));
}

#[test]
fn crawler_calibration_half_second_suffices() {
    let fast = coverage::run_coverage(
        &coverage::CoverageConfig {
            accounts: 10,
            account_refresh: SimDuration::from_secs(5),
            horizon: SimDuration::from_secs(400),
            ..coverage::CoverageConfig::paper_production()
        },
        &Telemetry::disabled(),
    );
    // Short horizon truncates discovery of broadcasts born at the very
    // end; 98%+ here corresponds to the paper's "exhaustive" at full span.
    assert!(fast.coverage > 0.98, "coverage {}", fast.coverage);
}

#[test]
fn experiment_determinism_across_the_suite() {
    // Same config ⇒ identical results for the two cheapest experiments
    // (the others assert determinism in their unit tests).
    let g1 = geolocation::run(&geolocation::GeolocationConfig::default());
    let g2 = geolocation::run(&geolocation::GeolocationConfig::default());
    assert_eq!(
        g1.bucket(livescope_net::geo::DistanceBucket::CoLocated)
            .unwrap()
            .median(),
        g2.bucket(livescope_net::geo::DistanceBucket::CoLocated)
            .unwrap()
            .median()
    );
    let p1 = polling::run(&polling::PollingConfig {
        broadcasts: 200,
        ..polling::PollingConfig::default()
    });
    let p2 = polling::run(&polling::PollingConfig {
        broadcasts: 200,
        ..polling::PollingConfig::default()
    });
    assert_eq!(p1.mean_cdfs[0].1.median(), p2.mean_cdfs[0].1.median());
}
