//! The campaign accumulator: a bounded-memory fold of the crawl.
//!
//! Materializing every [`MeasuredBroadcast`] of the paper's 19.6M
//! broadcasts is the memory wall the longitudinal replay hits first, so
//! the crawl folds into a [`StreamingCampaign`] accumulator instead:
//! daily recorded counts, scalar totals, a distinct-broadcaster bitset,
//! four quantile sketches (the Figs 3–5 distributions), and a bounded
//! min-hash reservoir of exemplar records for spot checks. Everything is
//! `O(users + days + bins + exemplars)` — independent of broadcast count.
//!
//! # Merge semantics
//!
//! The accumulator is *mergeable*: outage decisions come from the
//! sequential [`OutageFilter`](crate::OutageFilter), but once decided,
//! observations can be folded into separate accumulators and
//! [`StreamingCampaign::merge`]d without changing any aggregate byte —
//! the contract the sharded replay ([`crate::sharded`]) is built on.
//! Every piece of accumulator state is one of three merge-exact shapes:
//!
//! * **integer counters** (totals, per-day counts) — merge is `+`,
//!   associative and commutative over `u64`;
//! * **bitsets and log-binned sketches** — merge is set union /
//!   elementwise bin addition, again integer-exact (the sketches' f64
//!   `sum` is the one order-sensitive field, and nothing rendered reads
//!   it — see `QuantileSketch::mean`);
//! * **the exemplar reservoir** — a bounded "k smallest" selection under
//!   the *total* order `(priority, record.id)`. The id tiebreak matters:
//!   with priority alone, equal-priority records could surface in
//!   shard-count-dependent order. Under a total order, the k smallest of
//!   a union are exactly the k smallest of the merged k-smallest parts.
//!
//! Nothing here locks or shares: shards fold into private accumulators
//! and merge at a barrier, in fixed shard order.

use livescope_analysis::QuantileSketch;
use livescope_workload::{
    BroadcastRecord, BroadcastStream, DayStats, FixedBitset, WorkloadSummary,
};

use crate::campaign::{anonymize, CampaignConfig, MeasuredBroadcast};
use crate::sharded::run_campaign_sharded;

/// Default bound on the exemplar reservoir.
pub const DEFAULT_EXEMPLARS: usize = 64;

/// Mergeable accumulator for a measurement campaign over a broadcast
/// stream. Build with [`StreamingCampaign::new`], feed every crawler
/// decision through [`observe`](Self::observe) / [`miss`](Self::miss),
/// then close with [`finish`](Self::finish).
#[derive(Clone, Debug)]
pub struct StreamingCampaign {
    salt: u64,
    days: u32,
    /// Broadcasts the crawler recorded, per study day (Fig 1). Records
    /// with out-of-range days are counted in totals but not plotted.
    recorded_per_day: Vec<u64>,
    recorded: u64,
    missed: u64,
    total_views: u64,
    mobile_views: u64,
    hearts_total: u64,
    comments_total: u64,
    zero_viewer_broadcasts: u64,
    hls_broadcasts: u64,
    broadcasters: FixedBitset,
    duration_secs: QuantileSketch,
    viewers: QuantileSketch,
    hearts: QuantileSketch,
    comments: QuantileSketch,
    /// Bounded min-hash reservoir, sorted ascending by the total order
    /// `(priority, record.id)`.
    exemplars: Vec<(u64, MeasuredBroadcast)>,
    exemplar_capacity: usize,
}

impl StreamingCampaign {
    /// Creates an empty accumulator for a study of `days` days over a
    /// population of `users`, keeping at most `exemplar_capacity`
    /// exemplar records.
    pub fn new(config: &CampaignConfig, days: u32, users: usize, exemplar_capacity: usize) -> Self {
        StreamingCampaign {
            salt: config.anonymization_salt,
            days,
            recorded_per_day: vec![0; days as usize],
            recorded: 0,
            missed: 0,
            total_views: 0,
            mobile_views: 0,
            hearts_total: 0,
            comments_total: 0,
            zero_viewer_broadcasts: 0,
            hls_broadcasts: 0,
            broadcasters: FixedBitset::new(users),
            duration_secs: QuantileSketch::new(),
            viewers: QuantileSketch::new(),
            hearts: QuantileSketch::new(),
            comments: QuantileSketch::new(),
            exemplars: Vec::with_capacity(exemplar_capacity.saturating_add(1)),
            exemplar_capacity,
        }
    }

    /// Folds one *recorded* broadcast into the aggregates.
    pub fn observe(&mut self, record: BroadcastRecord) {
        self.recorded += 1;
        // Out-of-range days (possible in hand-built or truncated
        // datasets) must not index past the study window — the latent
        // fig1 panic this fold replaces.
        if let Some(slot) = self.recorded_per_day.get_mut(record.day as usize) {
            *slot += 1;
        }
        self.total_views += record.viewers;
        self.mobile_views += record.mobile_viewers;
        self.hearts_total += record.hearts;
        self.comments_total += record.comments;
        self.zero_viewer_broadcasts += (record.viewers == 0) as u64;
        self.hls_broadcasts += (record.hls_viewers > 0) as u64;
        self.broadcasters.insert(record.broadcaster);
        self.duration_secs.push(record.duration.as_secs_f64());
        self.viewers.push(record.viewers as f64);
        self.hearts.push(record.hearts as f64);
        self.comments.push(record.comments as f64);

        let measured = MeasuredBroadcast {
            broadcast_hash: anonymize(record.id, self.salt),
            broadcaster_hash: anonymize(record.broadcaster as u64, self.salt ^ 0xB),
            record,
        };
        // Min-hash reservoir: keep the `exemplar_capacity` records that
        // are smallest under the total order (hash priority, record id).
        // Deterministic (no RNG stream to disturb) and mergeable (under a
        // total order, the k smallest of a union are among the k smallest
        // of each part) — the id tiebreak is what makes ties, however
        // unlikely, resolve identically for every shard count.
        let key = (measured.broadcast_hash, measured.record.id);
        if self.exemplars.len() < self.exemplar_capacity
            || self
                .exemplars
                .last()
                .is_some_and(|(last, m)| key < (*last, m.record.id))
        {
            let at = self
                .exemplars
                .partition_point(|(p, m)| (*p, m.record.id) < key);
            self.exemplars.insert(at, (key.0, measured));
            self.exemplars.truncate(self.exemplar_capacity);
        }
    }

    /// Notes one broadcast the crawler lost (outage window).
    pub fn miss(&mut self) {
        self.missed += 1;
    }

    /// Folds another accumulator (over a disjoint slice of the decision
    /// stream) into this one. Equivalent to having observed both slices
    /// in one accumulator.
    ///
    /// # Panics
    /// Panics when the two accumulators were built for different studies
    /// (day count, population, salt, or reservoir bound differ).
    pub fn merge(&mut self, other: &StreamingCampaign) {
        assert_eq!(self.salt, other.salt, "campaign salt mismatch");
        assert_eq!(self.days, other.days, "study length mismatch");
        assert_eq!(
            self.exemplar_capacity, other.exemplar_capacity,
            "reservoir bound mismatch"
        );
        for (mine, theirs) in self
            .recorded_per_day
            .iter_mut()
            .zip(&other.recorded_per_day)
        {
            *mine += theirs;
        }
        self.recorded += other.recorded;
        self.missed += other.missed;
        self.total_views += other.total_views;
        self.mobile_views += other.mobile_views;
        self.hearts_total += other.hearts_total;
        self.comments_total += other.comments_total;
        self.zero_viewer_broadcasts += other.zero_viewer_broadcasts;
        self.hls_broadcasts += other.hls_broadcasts;
        self.broadcasters.union_with(&other.broadcasters);
        self.duration_secs.merge(&other.duration_secs);
        self.viewers.merge(&other.viewers);
        self.hearts.merge(&other.hearts);
        self.comments.merge(&other.comments);
        let mut merged = Vec::with_capacity(self.exemplar_capacity);
        let (mut a, mut b) = (self.exemplars.iter(), other.exemplars.iter());
        let (mut next_a, mut next_b) = (a.next(), b.next());
        while merged.len() < self.exemplar_capacity {
            match (next_a, next_b) {
                (Some(x), Some(y)) => {
                    // Same (priority, id) total order as `observe`.
                    if (x.0, x.1.record.id) <= (y.0, y.1.record.id) {
                        merged.push(x.clone());
                        next_a = a.next();
                    } else {
                        merged.push(y.clone());
                        next_b = b.next();
                    }
                }
                (Some(x), None) => {
                    merged.push(x.clone());
                    next_a = a.next();
                }
                (None, Some(y)) => {
                    merged.push(y.clone());
                    next_b = b.next();
                }
                (None, None) => break,
            }
        }
        self.exemplars = merged;
    }

    /// Closes the campaign, attaching the generator-side aggregates.
    pub fn finish(self, summary: WorkloadSummary) -> DatasetSummary {
        DatasetSummary {
            daily: summary.daily,
            user_views: summary.user_views,
            user_creates: summary.user_creates,
            recorded_per_day: self.recorded_per_day,
            recorded: self.recorded,
            missed: self.missed,
            total_views: self.total_views,
            mobile_views: self.mobile_views,
            hearts_total: self.hearts_total,
            comments_total: self.comments_total,
            zero_viewer_broadcasts: self.zero_viewer_broadcasts,
            hls_broadcasts: self.hls_broadcasts,
            distinct_broadcasters: self.broadcasters.len() as u64,
            duration_secs: self.duration_secs,
            viewers: self.viewers,
            hearts: self.hearts,
            comments: self.comments,
            exemplars: self.exemplars.into_iter().map(|(_, m)| m).collect(),
        }
    }

    /// Bytes of heap + inline storage held by the accumulator —
    /// `O(users + days + bins + exemplars)` (replay memory accounting).
    pub fn tracked_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.recorded_per_day.capacity() * std::mem::size_of::<u64>()
            + self.broadcasters.tracked_bytes()
            + self.duration_secs.tracked_bytes()
            + self.viewers.tracked_bytes()
            + self.hearts.tracked_bytes()
            + self.comments.tracked_bytes()
            + self.exemplars.capacity() * std::mem::size_of::<(u64, MeasuredBroadcast)>()
    }
}

/// The crawler's dataset, as aggregates: everything the Table 1 /
/// Figs 1–6 analyses need, none of the per-broadcast records (beyond
/// the exemplar reservoir).
#[derive(Clone, Debug)]
pub struct DatasetSummary {
    /// Ground-truth per-day aggregates, carried from the generator.
    pub daily: Vec<DayStats>,
    /// Views per user, carried over (ids already opaque indexes).
    pub user_views: Vec<u32>,
    /// Broadcasts created per user.
    pub user_creates: Vec<u32>,
    /// Broadcasts the crawler recorded per study day (the Fig 1 series,
    /// outage gap included).
    pub recorded_per_day: Vec<u64>,
    /// Ground-truth broadcasts the crawler missed.
    pub missed: u64,
    recorded: u64,
    total_views: u64,
    mobile_views: u64,
    /// Total hearts across recorded broadcasts.
    pub hearts_total: u64,
    /// Total comments across recorded broadcasts.
    pub comments_total: u64,
    /// Recorded broadcasts with zero viewers.
    pub zero_viewer_broadcasts: u64,
    /// Recorded broadcasts with at least one HLS viewer.
    pub hls_broadcasts: u64,
    distinct_broadcasters: u64,
    /// Fig 3 distribution: broadcast length in seconds.
    pub duration_secs: QuantileSketch,
    /// Fig 4 distribution: viewers per broadcast.
    pub viewers: QuantileSketch,
    /// Fig 5 distribution: hearts per broadcast.
    pub hearts: QuantileSketch,
    /// Fig 5 distribution: comments per broadcast.
    pub comments: QuantileSketch,
    /// Bounded spot-check reservoir (min-hash priority order).
    pub exemplars: Vec<MeasuredBroadcast>,
}

impl DatasetSummary {
    /// Table 1: recorded broadcast count.
    pub fn broadcasts(&self) -> u64 {
        self.recorded
    }

    /// Table 1: distinct broadcasters in the recorded data.
    pub fn broadcasters(&self) -> u64 {
        self.distinct_broadcasters
    }

    /// Table 1: total views across recorded broadcasts.
    pub fn total_views(&self) -> u64 {
        self.total_views
    }

    /// Table 1: mobile (registered) views across recorded broadcasts.
    pub fn mobile_views(&self) -> u64 {
        self.mobile_views
    }

    /// Table 1: distinct registered viewers (from per-user tallies).
    pub fn unique_viewers(&self) -> u64 {
        self.user_views.iter().filter(|&&v| v > 0).count() as u64
    }

    /// Fraction of ground truth lost to the outage.
    pub fn loss_fraction(&self, ground_truth: u64) -> f64 {
        if ground_truth == 0 {
            0.0
        } else {
            self.missed as f64 / ground_truth as f64
        }
    }
}

/// Runs the measurement campaign over a fresh broadcast stream: the
/// single-pass generate → crawl → analyze replay, on one shard
/// ([`run_campaign_sharded`] at `workers = 1`, folding on the caller's
/// thread). Peak state is the stream's `O(users + days)` plus the
/// accumulator's `O(users + days + bins)`.
pub fn run_campaign_streaming(
    stream: BroadcastStream<'_>,
    config: &CampaignConfig,
    exemplar_capacity: usize,
) -> DatasetSummary {
    run_campaign_sharded(stream, config, 1, exemplar_capacity).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::OutageFilter;
    use livescope_workload::{generate_streaming, ScenarioConfig};

    fn small_config() -> ScenarioConfig {
        ScenarioConfig {
            days: 10,
            users: 1_000,
            base_daily_broadcasts: 50.0,
            ..ScenarioConfig::periscope_study()
        }
    }

    fn outage_campaign() -> CampaignConfig {
        CampaignConfig {
            outage_days: Some((3, 5)),
            outage_loss: 0.5,
            ..CampaignConfig::periscope_study()
        }
    }

    #[test]
    fn streaming_fold_matches_materialized_campaign() {
        // Materialize the study, crawl it record by record, and fold the
        // crawl: the streaming campaign must produce the same dataset.
        let scenario = small_config();
        let campaign = outage_campaign();
        let mut stream = generate_streaming(&scenario);
        let records: Vec<BroadcastRecord> = (&mut stream).collect();
        let truth = stream.into_summary();
        let total = records.len() as u64;
        let mut filter = OutageFilter::new(&campaign);
        let mut acc =
            StreamingCampaign::new(&campaign, scenario.days, scenario.users, DEFAULT_EXEMPLARS);
        let mut recorded = Vec::new();
        for r in records {
            if filter.observes(r.day) {
                recorded.push(r.clone());
                acc.observe(r);
            } else {
                acc.miss();
            }
        }
        let folded = acc.finish(truth);
        let streamed =
            run_campaign_streaming(generate_streaming(&scenario), &campaign, DEFAULT_EXEMPLARS);
        assert_eq!(streamed.broadcasts(), recorded.len() as u64);
        assert_eq!(streamed.missed, total - recorded.len() as u64);
        let views: u64 = recorded.iter().map(|r| r.viewers).sum();
        assert_eq!(streamed.total_views(), views);
        // The per-day recorded series matches a scan of the records.
        for (day, &count) in streamed.recorded_per_day.iter().enumerate() {
            let scanned = recorded.iter().filter(|r| r.day as usize == day).count();
            assert_eq!(count, scanned as u64, "day {day}");
        }
        // And the whole fold agrees exactly — tallies, sketches,
        // reservoir and all.
        assert_eq!(streamed.user_views, folded.user_views);
        assert_eq!(streamed.user_creates, folded.user_creates);
        assert_eq!(streamed.daily, folded.daily);
        assert_eq!(streamed.broadcasters(), folded.broadcasters());
        assert_eq!(
            streamed.duration_secs.series(150),
            folded.duration_secs.series(150)
        );
        assert_eq!(streamed.viewers.series(150), folded.viewers.series(150));
        assert_eq!(streamed.hearts.series(120), folded.hearts.series(120));
        assert_eq!(streamed.comments.series(120), folded.comments.series(120));
        assert_eq!(streamed.exemplars, folded.exemplars);
        assert_eq!(streamed.exemplars.len(), DEFAULT_EXEMPLARS);
    }

    #[test]
    fn merged_accumulators_equal_single_fold() {
        let scenario = small_config();
        let campaign = outage_campaign();
        let records: Vec<BroadcastRecord> = generate_streaming(&scenario).collect();
        // Outage decisions are made once, sequentially…
        let mut filter = OutageFilter::new(&campaign);
        let decisions: Vec<bool> = records.iter().map(|r| filter.observes(r.day)).collect();
        // …then the observation fold is sharded at an arbitrary split.
        let days = scenario.days;
        let users = scenario.users;
        let mut single = StreamingCampaign::new(&campaign, days, users, 16);
        let mut left = StreamingCampaign::new(&campaign, days, users, 16);
        let mut right = StreamingCampaign::new(&campaign, days, users, 16);
        let split = records.len() / 3;
        for (i, (record, &observed)) in records.into_iter().zip(&decisions).enumerate() {
            let shard = if i < split { &mut left } else { &mut right };
            if observed {
                single.observe(record.clone());
                shard.observe(record);
            } else {
                single.miss();
                shard.miss();
            }
        }
        left.merge(&right);
        assert_eq!(left.recorded, single.recorded);
        assert_eq!(left.missed, single.missed);
        assert_eq!(left.recorded_per_day, single.recorded_per_day);
        assert_eq!(left.total_views, single.total_views);
        assert_eq!(left.broadcasters.len(), single.broadcasters.len());
        assert_eq!(left.viewers.series(150), single.viewers.series(150));
        let merged_ids: Vec<u64> = left.exemplars.iter().map(|(p, _)| *p).collect();
        let single_ids: Vec<u64> = single.exemplars.iter().map(|(p, _)| *p).collect();
        assert_eq!(merged_ids, single_ids);
    }

    #[test]
    fn out_of_range_day_is_counted_but_not_plotted() {
        let scenario = small_config();
        let campaign = CampaignConfig::meerkat_study();
        let mut acc = StreamingCampaign::new(&campaign, 3, scenario.users, 4);
        let mut record = generate_streaming(&scenario).next().expect("a record");
        record.day = 2; // final in-range day
        acc.observe(record.clone());
        record.day = 7; // beyond the study window
        acc.observe(record);
        assert_eq!(acc.recorded, 2);
        assert_eq!(acc.recorded_per_day, vec![0, 0, 1]);
    }

    #[test]
    fn accumulator_memory_is_bounded() {
        let scenario = small_config();
        let campaign = CampaignConfig::meerkat_study();
        let mut acc =
            StreamingCampaign::new(&campaign, scenario.days, scenario.users, DEFAULT_EXEMPLARS);
        let mut peak_during = 0usize;
        let baseline = acc.tracked_bytes();
        for record in generate_streaming(&scenario) {
            acc.observe(record);
            peak_during = peak_during.max(acc.tracked_bytes());
        }
        assert!(acc.recorded > 400, "workload too small to exercise bound");
        // The only growth allowed over the empty accumulator is the
        // bounded exemplar reservoir.
        let reservoir = (DEFAULT_EXEMPLARS + 1) * std::mem::size_of::<(u64, MeasuredBroadcast)>();
        assert!(
            peak_during <= baseline + reservoir,
            "accumulator grew past its bound: {peak_during} vs {baseline} + {reservoir}"
        );
    }
}
