//! Workload data model: what a generated study "measured".

use livescope_sim::{SimDuration, SimTime};

use crate::scenario::ScenarioConfig;

/// One broadcast, as the crawler would record it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BroadcastRecord {
    /// Sequential broadcast id (Periscope assigned ids sequentially at the
    /// time of the study, which is how the paper counted users).
    pub id: u64,
    /// Broadcaster's user id (node id in the follow graph).
    pub broadcaster: u32,
    /// Day index within the study window.
    pub day: u32,
    /// Start instant (day boundary + within-day offset).
    pub start: SimTime,
    /// Broadcast length.
    pub duration: SimDuration,
    /// Broadcaster's follower count at broadcast time.
    pub followers: u64,
    /// Total views, mobile + anonymous web.
    pub viewers: u64,
    /// Views from registered mobile users.
    pub mobile_viewers: u64,
    /// Viewers served over HLS (arrivals after the RTMP slots filled).
    pub hls_viewers: u64,
    /// Hearts received.
    pub hearts: u64,
    /// Comments received (bounded by the 100-commenter cap).
    pub comments: u64,
}

impl BroadcastRecord {
    /// End instant of the broadcast.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// True if the broadcast is live at `t`.
    pub fn live_at(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end()
    }
}

/// Per-day aggregates (Figs 1 and 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DayStats {
    /// Day index within the study window.
    pub day: u32,
    /// Broadcasts started this day (Fig 1).
    pub broadcasts: u64,
    /// Distinct registered users who viewed something this day.
    pub active_viewers: u64,
    /// Distinct users who broadcast this day.
    pub active_broadcasters: u64,
}

/// The bounded-memory residue of a generated study: its ground truth
/// without the per-broadcast records themselves.
///
/// This is what a [`BroadcastStream`](crate::BroadcastStream)'s
/// ground-truth ledger has counted once the stream is exhausted —
/// `O(users + days)` state, independent of how many broadcasts streamed
/// through.
#[derive(Clone, Debug)]
pub struct WorkloadSummary {
    /// The scenario that was generated.
    pub config: ScenarioConfig,
    /// Per-day aggregates (Figs 1–2).
    pub daily: Vec<DayStats>,
    /// Mobile views per registered user over the whole study (Fig 6).
    pub user_views: Vec<u32>,
    /// Broadcasts created per user over the whole study (Fig 6).
    pub user_creates: Vec<u32>,
}

impl WorkloadSummary {
    /// Table 1 row: total broadcasts.
    pub fn total_broadcasts(&self) -> u64 {
        self.user_creates.iter().map(|&c| c as u64).sum()
    }

    /// Table 1 row: distinct broadcasters.
    pub fn unique_broadcasters(&self) -> u64 {
        self.user_creates.iter().filter(|&&c| c > 0).count() as u64
    }

    /// Total mobile (registered) views.
    pub fn mobile_views(&self) -> u64 {
        self.user_views.iter().map(|&v| v as u64).sum()
    }

    /// Table 1 row: distinct registered viewers.
    pub fn unique_viewers(&self) -> u64 {
        self.user_views.iter().filter(|&&v| v > 0).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> BroadcastRecord {
        BroadcastRecord {
            id: 1,
            broadcaster: 7,
            day: 0,
            start: SimTime::from_secs(100),
            duration: SimDuration::from_secs(60),
            followers: 3,
            viewers: 10,
            mobile_viewers: 7,
            hls_viewers: 0,
            hearts: 4,
            comments: 2,
        }
    }

    #[test]
    fn liveness_window_is_half_open() {
        let b = record();
        assert!(!b.live_at(SimTime::from_secs(99)));
        assert!(b.live_at(SimTime::from_secs(100)));
        assert!(b.live_at(SimTime::from_secs(159)));
        assert!(!b.live_at(SimTime::from_secs(160)));
        assert_eq!(b.end(), SimTime::from_secs(160));
    }

    #[test]
    fn workload_aggregates() {
        let w = WorkloadSummary {
            config: crate::scenario::ScenarioConfig::periscope_study(),
            daily: vec![],
            user_views: vec![0, 3, 2, 0, 5],
            user_creates: vec![0, 2, 0, 0, 0],
        };
        assert_eq!(w.total_broadcasts(), 2);
        assert_eq!(w.mobile_views(), 10);
        assert_eq!(w.unique_viewers(), 3);
        assert_eq!(w.unique_broadcasters(), 1);
    }
}
