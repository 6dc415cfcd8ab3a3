//! Scenario configuration and the two study presets.

use serde::{Deserialize, Serialize};

/// Which service's behaviour a scenario models.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum App {
    /// Twitter's Periscope (97-day study, §3.1).
    Periscope,
    /// Meerkat (34-day study, §3.1).
    Meerkat,
}

impl App {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            App::Periscope => "Periscope",
            App::Meerkat => "Meerkat",
        }
    }
}

/// Everything the workload generator needs. All knobs are plain data so
/// scenarios serialize into figure metadata.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Which service's distributions to reproduce.
    pub app: App,
    /// Length of the measurement window, days.
    pub days: u32,
    /// Registered-user population (already scaled).
    pub users: usize,
    /// How much the paper-scale numbers were divided by (reporting only).
    pub scale_divisor: f64,
    /// Expected broadcasts on day 0 (already scaled).
    pub base_daily_broadcasts: f64,
    /// Multiplier from day 0 to the last day, interpolated exponentially.
    /// Periscope ≈ 3.3 (growth), Meerkat ≈ 0.45 (decline).
    pub total_growth: f64,
    /// Relative weekend boost (Fig 1's weekly sawtooth). 0 disables.
    pub weekly_amplitude: f64,
    /// Day index of the Android launch, if inside the window: a one-time
    /// permanent jump in the trend.
    pub android_launch_day: Option<u32>,
    /// Jump multiplier applied from the launch day onward.
    pub android_jump: f64,
    /// Daily active viewers per active broadcaster (paper: ≈10).
    pub viewer_ratio: f64,
    /// Fraction of registered users who never view in the window
    /// (Periscope: 12M registered vs 7.65M unique viewers ⇒ ≈0.36).
    pub viewer_inactive_fraction: f64,
    /// Lognormal sigma of per-user viewing propensity (Fig 6 skew knob):
    /// top-15%/median view ratio ≈ exp(1.04·sigma).
    pub viewer_activity_sigma: f64,
    /// Fraction of registered users who never broadcast in the window
    /// (Periscope: 1.85M broadcasters of 12M ⇒ ≈0.85).
    pub creator_inactive_fraction: f64,
    /// Fraction of broadcasts with zero viewers (Meerkat ≈0.6, Periscope
    /// near zero).
    pub zero_viewer_fraction: f64,
    /// Power-law exponent of organic viewers per broadcast.
    pub viewer_alpha: f64,
    /// Cap on viewers per broadcast (paper observes up to ~100K).
    pub viewer_max: u64,
    /// Probability a notified follower joins the broadcast (drives Fig 7).
    pub follower_join_prob: f64,
    /// Lognormal parameters of broadcast duration, seconds
    /// (`exp(mu)` = median).
    pub duration_mu: f64,
    /// Lognormal sigma of broadcast duration (tail heaviness).
    pub duration_sigma: f64,
    /// Mean hearts a viewer sends in an engaging broadcast.
    pub hearts_per_viewer: f64,
    /// Mean comments per admitted commenter.
    pub comments_per_commenter: f64,
    /// RTMP viewer slots before handoff to HLS (paper: ~100).
    pub rtmp_slots: u64,
    /// Fraction of views from the mobile app (vs anonymous web):
    /// 482M/705M ≈ 0.68 for Periscope.
    pub mobile_fraction: f64,
    /// Root seed.
    pub seed: u64,
}

impl ScenarioConfig {
    /// The Periscope study: 97 days (May 15 – Aug 20, 2015), scaled 1000×.
    ///
    /// Paper-scale anchors: ~100K broadcasts/day growing past 300K
    /// (Fig 1); 19.6M broadcasts total; 705M views (68% mobile); 12M
    /// registered users; Android launch ~day 11 (May 26).
    pub fn periscope_study() -> Self {
        ScenarioConfig {
            app: App::Periscope,
            days: 97,
            users: 12_000,
            scale_divisor: 1_000.0,
            base_daily_broadcasts: 80.0,
            total_growth: 3.3,
            weekly_amplitude: 0.12,
            android_launch_day: Some(11),
            android_jump: 1.35,
            viewer_ratio: 10.0,
            viewer_inactive_fraction: 0.05,
            viewer_activity_sigma: 2.2,
            creator_inactive_fraction: 0.83,
            zero_viewer_fraction: 0.03,
            viewer_alpha: 1.85,
            viewer_max: 100_000,
            follower_join_prob: 0.10,
            duration_mu: 5.05, // median ≈ 156 s
            duration_sigma: 1.1,
            hearts_per_viewer: 12.0,
            comments_per_commenter: 4.0,
            rtmp_slots: 100,
            mobile_fraction: 0.683,
            seed: 0x5ca1ab1e,
        }
    }

    /// The Meerkat study: 34 days (May 12 – Jun 15, 2015), scaled 100×
    /// (Meerkat was already small).
    ///
    /// Paper-scale anchors: ~8K broadcasts/day dropping below 4K; 164K
    /// broadcasts; 3.8M views; 60% of broadcasts with no viewers at all;
    /// longer-tailed durations.
    pub fn meerkat_study() -> Self {
        ScenarioConfig {
            app: App::Meerkat,
            days: 34,
            users: 1_900,
            scale_divisor: 100.0,
            base_daily_broadcasts: 68.0,
            total_growth: 0.45,
            weekly_amplitude: 0.04,
            android_launch_day: None,
            android_jump: 1.0,
            viewer_ratio: 7.0,
            viewer_inactive_fraction: 0.03,
            viewer_activity_sigma: 1.0,
            creator_inactive_fraction: 0.70,
            zero_viewer_fraction: 0.60,
            viewer_alpha: 1.60,
            viewer_max: 10_000,
            follower_join_prob: 0.05,
            duration_mu: 4.7,
            duration_sigma: 1.45, // heavier tail than Periscope
            hearts_per_viewer: 4.0,
            comments_per_commenter: 2.0,
            rtmp_slots: 100,
            mobile_fraction: 0.82,
            seed: 0x0ddba11,
        }
    }

    /// Sanity-checks the knobs; generators call this first.
    pub fn validate(&self) -> Result<(), String> {
        if self.days == 0 {
            return Err("days must be positive".into());
        }
        if self.users < 2 {
            return Err("need at least two users".into());
        }
        if self.users > u32::MAX as usize {
            return Err(format!("users must fit a u32 user id, got {}", self.users));
        }
        for (name, p) in [
            ("zero_viewer_fraction", self.zero_viewer_fraction),
            ("follower_join_prob", self.follower_join_prob),
            ("mobile_fraction", self.mobile_fraction),
            ("viewer_inactive_fraction", self.viewer_inactive_fraction),
            ("creator_inactive_fraction", self.creator_inactive_fraction),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0,1], got {p}"));
            }
        }
        if self.base_daily_broadcasts <= 0.0 || self.total_growth <= 0.0 {
            return Err("broadcast volume knobs must be positive".into());
        }
        if self.viewer_alpha <= 1.0 {
            return Err("viewer_alpha must exceed 1 for a normalizable tail".into());
        }
        if !self.viewer_activity_sigma.is_finite() || self.viewer_activity_sigma < 0.0 {
            return Err(format!(
                "viewer_activity_sigma must be finite and non-negative, got {}",
                self.viewer_activity_sigma
            ));
        }
        if self.viewer_max == 0 {
            return Err("viewer_max must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        ScenarioConfig::periscope_study().validate().unwrap();
        ScenarioConfig::meerkat_study().validate().unwrap();
    }

    #[test]
    fn presets_match_paper_anchors() {
        let p = ScenarioConfig::periscope_study();
        assert_eq!(p.days, 97);
        assert!(p.total_growth > 3.0, "Periscope tripled daily broadcasts");
        assert_eq!(p.rtmp_slots, 100);
        let m = ScenarioConfig::meerkat_study();
        assert_eq!(m.days, 34);
        assert!(m.total_growth < 0.6, "Meerkat halved daily broadcasts");
        assert!((m.zero_viewer_fraction - 0.6).abs() < 1e-9);
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = ScenarioConfig::periscope_study();
        c.days = 0;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::periscope_study();
        c.zero_viewer_fraction = 1.5;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::periscope_study();
        c.viewer_alpha = 0.9;
        assert!(c.validate().is_err());
        let mut c = ScenarioConfig::periscope_study();
        c.total_growth = 0.0;
        assert!(c.validate().is_err());
        // User ids are u32; one past the last id must be refused by name.
        let mut c = ScenarioConfig::periscope_study();
        c.users = u32::MAX as usize + 1;
        assert!(c.validate().unwrap_err().contains("users"));
        c.users = u32::MAX as usize;
        c.validate().unwrap();
        // A sigma that would make the viewer table's total NaN or infinite.
        for sigma in [-0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut c = ScenarioConfig::periscope_study();
            c.viewer_activity_sigma = sigma;
            let err = c.validate().unwrap_err();
            assert!(err.contains("viewer_activity_sigma"), "{sigma}: {err}");
        }
        let mut c = ScenarioConfig::periscope_study();
        c.viewer_activity_sigma = 0.0;
        c.validate().unwrap();
    }

    #[test]
    fn config_serializes_roundtrip() {
        let c = ScenarioConfig::periscope_study();
        let json = serde_json::to_string(&c).unwrap();
        let back: ScenarioConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.days, c.days);
        assert_eq!(back.app, c.app);
    }
}
