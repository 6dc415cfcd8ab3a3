//! Table 1 and Figs 1–6: scale, growth and user-activity analyses on the
//! measured (crawled) datasets for both services.
//!
//! Everything here works off the bounded-memory
//! [`livescope_crawler::streaming::DatasetSummary`] the streaming
//! campaign produced — including its imperfections (outage gap) — just
//! like the paper worked off its crawl. [`run`] is the single-pass
//! generate → crawl → analyze replay (`crates/workload/DESIGN.md`):
//! [`run_campaign_streaming`] reads each study's stream record by record.
//! `tests/streaming_replay.rs` holds its rendered bytes equal to a fold
//! over the materialized records.

use livescope_analysis::{Figure, QuantileSketch, Series, Table};
use livescope_crawler::campaign::CampaignConfig;
use livescope_crawler::streaming::{run_campaign_streaming, DatasetSummary, DEFAULT_EXEMPLARS};
use livescope_workload::{generate_streaming, ScenarioConfig};

/// Which scenarios to measure.
#[derive(Clone, Debug)]
pub struct UsageConfig {
    pub periscope: ScenarioConfig,
    pub periscope_campaign: CampaignConfig,
    pub meerkat: ScenarioConfig,
    pub meerkat_campaign: CampaignConfig,
}

impl Default for UsageConfig {
    fn default() -> Self {
        UsageConfig {
            periscope: ScenarioConfig::periscope_study(),
            periscope_campaign: CampaignConfig::periscope_study(),
            meerkat: ScenarioConfig::meerkat_study(),
            meerkat_campaign: CampaignConfig::meerkat_study(),
        }
    }
}

/// Both measured datasets, as streaming aggregates.
pub struct UsageReport {
    pub periscope: DatasetSummary,
    pub meerkat: DatasetSummary,
    pub periscope_scale: f64,
    pub meerkat_scale: f64,
}

/// Paper Table 1 anchors (paper-scale numbers).
pub const PAPER_TABLE1: [(&str, u64, u64, u64, u64); 2] = [
    // (app, broadcasts, broadcasters, total views, unique viewers)
    ("Periscope", 19_600_000, 1_850_000, 705_000_000, 7_650_000),
    ("Meerkat", 164_000, 57_000, 3_800_000, 183_000),
];

/// Runs both campaigns on the streaming path: records are generated,
/// filtered and folded one at a time, never materialized.
pub fn run(config: &UsageConfig) -> UsageReport {
    UsageReport {
        periscope: run_campaign_streaming(
            generate_streaming(&config.periscope),
            &config.periscope_campaign,
            DEFAULT_EXEMPLARS,
        ),
        meerkat: run_campaign_streaming(
            generate_streaming(&config.meerkat),
            &config.meerkat_campaign,
            DEFAULT_EXEMPLARS,
        ),
        periscope_scale: config.periscope.scale_divisor,
        meerkat_scale: config.meerkat.scale_divisor,
    }
}

/// Sketch of the nonzero entries of a per-user tally vector (Fig 6's
/// "users with at least one view/create", in user-id order).
fn nonzero_tally_sketch(tallies: &[u32]) -> QuantileSketch {
    let mut sketch = QuantileSketch::new();
    for &t in tallies {
        if t > 0 {
            sketch.push(t as f64);
        }
    }
    sketch
}

impl UsageReport {
    /// Table 1: measured (scaled) vs paper.
    pub fn tab1(&self) -> String {
        let mut table = Table::new([
            "app",
            "months",
            "broadcasts",
            "broadcasters",
            "total views",
            "unique viewers",
            "scale",
            "paper (bcasts/bcasters/views/viewers)",
        ]);
        for ((name, pb, pc, pv, pu), (ds, months, scale)) in PAPER_TABLE1.iter().zip([
            (&self.periscope, 3, self.periscope_scale),
            (&self.meerkat, 1, self.meerkat_scale),
        ]) {
            table.row([
                name.to_string(),
                months.to_string(),
                ds.broadcasts().to_string(),
                ds.broadcasters().to_string(),
                ds.total_views().to_string(),
                ds.unique_viewers().to_string(),
                format!("1/{scale}"),
                format!("{pb}/{pc}/{pv}/{pu}"),
            ]);
        }
        format!(
            "Table 1 — dataset scale (measured, scaled down, vs paper)\n{}",
            table.render()
        )
    }

    /// Fig 1: daily broadcasts, both apps.
    pub fn fig1(&self) -> Figure {
        let mut fig = Figure::new(
            "Fig 1 — # of daily broadcasts",
            "day of study",
            "broadcasts per day (scaled)",
        );
        for (name, ds) in [("Periscope", &self.periscope), ("Meerkat", &self.meerkat)] {
            // Plot what the crawler *recorded* per day, so the outage gap
            // is visible exactly as in the paper's figure. The fold has
            // already bucketed these (out-of-range days excluded).
            let points = ds
                .recorded_per_day
                .iter()
                .enumerate()
                .map(|(d, &c)| (d as f64, c as f64))
                .collect();
            fig.push_series(Series::new(name, points));
        }
        fig
    }

    /// Fig 2: daily active users.
    pub fn fig2(&self) -> Figure {
        let mut fig = Figure::new(
            "Fig 2 — # of daily active users",
            "day of study",
            "active users per day (scaled)",
        );
        for (name, ds) in [("Periscope", &self.periscope), ("Meerkat", &self.meerkat)] {
            fig.push_series(Series::new(
                format!("{name} viewers"),
                ds.daily
                    .iter()
                    .map(|d| (d.day as f64, d.active_viewers as f64))
                    .collect(),
            ));
            fig.push_series(Series::new(
                format!("{name} broadcasters"),
                ds.daily
                    .iter()
                    .map(|d| (d.day as f64, d.active_broadcasters as f64))
                    .collect(),
            ));
        }
        fig
    }

    /// Fig 3: CDF of broadcast length, from the streaming sketch.
    pub fn fig3(&self) -> Figure {
        let mut fig = Figure::new(
            "Fig 3 — CDF of broadcast length",
            "length of broadcast (s)",
            "CDF of broadcasts",
        )
        .with_log_x();
        for (name, ds) in [("Periscope", &self.periscope), ("Meerkat", &self.meerkat)] {
            fig.push_series(Series::new(name, ds.duration_secs.series(150)));
        }
        fig
    }

    /// Fig 4: CDF of viewers per broadcast, from the streaming sketch.
    pub fn fig4(&self) -> Figure {
        let mut fig = Figure::new(
            "Fig 4 — total # of viewers per broadcast",
            "# of viewers per broadcast",
            "CDF of broadcasts",
        )
        .with_log_x();
        for (name, ds) in [("Meerkat", &self.meerkat), ("Periscope", &self.periscope)] {
            fig.push_series(Series::new(name, ds.viewers.series(150)));
        }
        fig
    }

    /// Fig 5: CDFs of comments and hearts per broadcast.
    pub fn fig5(&self) -> Figure {
        let mut fig = Figure::new(
            "Fig 5 — total # of comments (hearts) per broadcast",
            "# per broadcast",
            "CDF of broadcasts",
        )
        .with_log_x();
        for (name, ds) in [("Meerkat", &self.meerkat), ("Periscope", &self.periscope)] {
            for (kind, sketch) in [("comment", &ds.comments), ("heart", &ds.hearts)] {
                fig.push_series(Series::new(format!("{name} {kind}"), sketch.series(120)));
            }
        }
        fig
    }

    /// Fig 6: distribution of broadcast views / creations over users.
    pub fn fig6(&self) -> Figure {
        let mut fig = Figure::new(
            "Fig 6 — broadcasts viewed/created per user",
            "# of broadcasts viewed/created",
            "CDF of users",
        )
        .with_log_x();
        for (name, ds) in [("Meerkat", &self.meerkat), ("Periscope", &self.periscope)] {
            let creates = nonzero_tally_sketch(&ds.user_creates);
            let views = nonzero_tally_sketch(&ds.user_views);
            fig.push_series(Series::new(format!("{name} create"), creates.series(120)));
            fig.push_series(Series::new(format!("{name} view"), views.series(120)));
        }
        fig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use livescope_crawler::StreamingCampaign;
    use livescope_workload::{BroadcastRecord, DayStats, WorkloadSummary};

    fn quick() -> UsageConfig {
        UsageConfig {
            periscope: ScenarioConfig {
                days: 28,
                users: 3_000,
                base_daily_broadcasts: 60.0,
                android_launch_day: Some(7),
                ..ScenarioConfig::periscope_study()
            },
            periscope_campaign: CampaignConfig {
                outage_days: Some((20, 22)),
                outage_loss: 0.5,
                ..CampaignConfig::periscope_study()
            },
            meerkat: ScenarioConfig {
                days: 28,
                users: 800,
                base_daily_broadcasts: 30.0,
                ..ScenarioConfig::meerkat_study()
            },
            meerkat_campaign: CampaignConfig::meerkat_study(),
        }
    }

    #[test]
    fn periscope_grows_and_meerkat_declines() {
        let report = run(&quick());
        let slope = |ds: &DatasetSummary| {
            let first: u64 = ds.daily[..7].iter().map(|d| d.broadcasts).sum();
            let last: u64 = ds.daily[ds.daily.len() - 7..]
                .iter()
                .map(|d| d.broadcasts)
                .sum();
            last as f64 / first.max(1) as f64
        };
        assert!(slope(&report.periscope) > 1.3, "Periscope should grow");
        assert!(slope(&report.meerkat) < 0.95, "Meerkat should decline");
    }

    #[test]
    fn viewer_ratio_and_zero_viewer_contrast() {
        let report = run(&quick());
        // Meerkat: most broadcasts go unwatched.
        let zero =
            |ds: &DatasetSummary| ds.zero_viewer_broadcasts as f64 / ds.broadcasts().max(1) as f64;
        let meerkat_zero = zero(&report.meerkat);
        assert!(
            (0.5..0.7).contains(&meerkat_zero),
            "meerkat zero {meerkat_zero}"
        );
        let periscope_zero = zero(&report.periscope);
        assert!(periscope_zero < 0.1, "periscope zero {periscope_zero}");
        // The sketch's zero bin agrees with the exact counter.
        assert_eq!(
            report.meerkat.viewers.fraction_at_or_below(0.0),
            meerkat_zero
        );
    }

    #[test]
    fn most_broadcasts_are_short() {
        let report = run(&quick());
        for ds in [&report.periscope, &report.meerkat] {
            let under_10m = ds.duration_secs.fraction_at_or_below(600.0);
            assert!((0.75..0.95).contains(&under_10m), "under-10m {under_10m}");
        }
    }

    #[test]
    fn outage_gap_shows_in_fig1_series() {
        let report = run(&quick());
        let fig = report.fig1();
        let periscope = &fig.series[0];
        // Average of outage days vs neighbors.
        let value = |d: usize| periscope.points[d].1;
        let outage_avg = (value(20) + value(21) + value(22)) / 3.0;
        let neighbor_avg = (value(18) + value(19) + value(23) + value(24)) / 4.0;
        assert!(
            outage_avg < neighbor_avg * 0.8,
            "outage {outage_avg} vs neighbors {neighbor_avg}"
        );
    }

    #[test]
    fn tab1_renders_both_apps() {
        let report = run(&quick());
        let text = report.tab1();
        assert!(text.contains("Periscope"));
        assert!(text.contains("Meerkat"));
        assert!(text.contains("19600000/"));
    }

    #[test]
    fn all_figures_render_nonempty() {
        let report = run(&quick());
        for (fig, series) in [
            (report.fig1(), 2),
            (report.fig2(), 4),
            (report.fig3(), 2),
            (report.fig4(), 2),
            (report.fig5(), 4),
            (report.fig6(), 4),
        ] {
            assert_eq!(fig.series.len(), series, "{}", fig.title);
            for s in &fig.series {
                assert!(!s.points.is_empty(), "{}: {}", fig.title, s.label);
            }
        }
    }

    #[test]
    fn fig5_hearts_dominate_comments_for_periscope() {
        let report = run(&quick());
        assert!(
            report.periscope.hearts_total > report.periscope.comments_total * 5,
            "hearts {} vs comments {} — the commenter cap should bind",
            report.periscope.hearts_total,
            report.periscope.comments_total
        );
    }

    #[test]
    fn fig1_tolerates_records_on_and_past_the_final_day() {
        // Regression: the old fig1 indexed `per_day[record.day]` into a
        // `daily`-sized vec, so any record with `day >= daily.len()`
        // (hand-built datasets, truncated studies) panicked. The fold
        // must keep in-range days — including the final one — and skip
        // out-of-range days.
        let record = |day: u32| BroadcastRecord {
            id: 1 + day as u64,
            broadcaster: 0,
            day,
            start: livescope_sim::SimTime::from_secs(day as u64 * 86_400),
            duration: livescope_sim::SimDuration::from_secs(60),
            followers: 1,
            viewers: 2,
            mobile_viewers: 1,
            hls_viewers: 0,
            hearts: 3,
            comments: 1,
        };
        let daily: Vec<DayStats> = (0..3)
            .map(|day| DayStats {
                day,
                broadcasts: 1,
                active_viewers: 1,
                active_broadcasters: 1,
            })
            .collect();
        let campaign = CampaignConfig::meerkat_study();
        let mut acc = StreamingCampaign::new(&campaign, 3, 2, DEFAULT_EXEMPLARS);
        // One record on the final in-range day, one past the window.
        acc.observe(record(2));
        acc.observe(record(3));
        let summary = acc.finish(WorkloadSummary {
            config: ScenarioConfig {
                days: 3,
                users: 2,
                ..ScenarioConfig::meerkat_study()
            },
            daily,
            user_views: vec![1, 0],
            user_creates: vec![2, 0],
        });
        let report = UsageReport {
            periscope: summary.clone(),
            meerkat: summary,
            periscope_scale: 1.0,
            meerkat_scale: 1.0,
        };
        let fig = report.fig1();
        assert_eq!(fig.series[0].points.len(), 3);
        assert_eq!(fig.series[0].points[2], (2.0, 1.0));
        // Both records still count toward totals; fig2 renders too.
        assert_eq!(report.periscope.broadcasts(), 2);
        report.fig2();
    }
}
