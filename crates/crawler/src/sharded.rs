//! The data-parallel measurement campaign: K-shard replay with a
//! deterministic fold/merge contract (DESIGN.md §13).
//!
//! [`run_campaign_streaming`](crate::run_campaign_streaming) folds the
//! broadcast stream on one thread. This module partitions the *user
//! space* into K shards — shard of a broadcast = `broadcaster % K` — and
//! runs the expensive half of generate → crawl → fold independently per
//! shard, merging in fixed shard order `0..K` at the end. Output is
//! byte-identical to the single-shard path for every `(seed, divisor,
//! K)`, with or without worker threads, because:
//!
//! 1. the per-record sampler draws from a *per-record* RNG stream
//!    ([`RecordSampler`]), so a record's bytes never depend on which
//!    shard samples it or when;
//! 2. the inherently sequential draws — daily schedule counts, creator
//!    picks ([`ScheduleStream`]) and outage decisions
//!    ([`OutageFilter`], one decision per broadcast in id order) — stay
//!    on the coordinator, exactly as the single-shard path makes them;
//! 3. every shard-local accumulator merges exactly (integer counters,
//!    bitset union, sketch bin addition, `(priority, id)`-ordered
//!    reservoir — see [`crate::streaming`]), and merges happen in fixed
//!    shard order at fixed points (day barriers for the distinct-user
//!    bitsets, end of study for everything else).
//!
//! One shard folds its slate inline on the caller's thread; with more,
//! each day's shard slates run on scoped worker threads
//! ([`livescope_sim::run_parts`]). Threads never share mutable state —
//! each worker owns its private `ShardFold` — so the detlint
//! shared-mutable-state rule holds by construction.

use std::time::Instant;

use livescope_graph::DiGraph;
use livescope_sim::run_parts;
use livescope_workload::{
    DayStats, FixedBitset, RecordSampler, ScenarioConfig, ScheduleStream, ScheduledBroadcast,
    WorkloadSummary,
};

use crate::campaign::{CampaignConfig, OutageFilter};
use crate::streaming::{DatasetSummary, StreamingCampaign};

/// Wall-clock and memory facts from one sharded run, for the
/// `workers` scaling curve of `BENCH_replay.json`.
#[derive(Clone, Copy, Debug)]
pub struct ShardedRunStats {
    /// Worker shard count the campaign ran with.
    pub workers: usize,
    /// Ground-truth broadcasts processed (recorded + missed).
    pub records: u64,
    /// Seconds spent in the final fixed-order accumulator merge.
    pub merge_wall_s: f64,
    /// Seconds spent in day barriers (bitset unions + day stats).
    pub barrier_wall_s: f64,
    /// Peak bytes of tracked replay state across all shards, sampled at
    /// day barriers (sampler tables, schedule, slates, accumulators).
    pub peak_tracked_bytes: usize,
}

/// One shard's private slice of the campaign: a [`StreamingCampaign`]
/// plus the ground-truth tallies and day-scoped distinct-user bitsets
/// for the records this shard owns. Never shared across threads — moved
/// into a worker for a day, merged by the coordinator at barriers.
struct ShardFold {
    acc: StreamingCampaign,
    user_views: Vec<u32>,
    user_creates: Vec<u32>,
    day_viewers: FixedBitset,
    day_broadcasters: FixedBitset,
}

impl ShardFold {
    fn new(campaign: &CampaignConfig, days: u32, users: usize, exemplar_capacity: usize) -> Self {
        ShardFold {
            acc: StreamingCampaign::new(campaign, days, users, exemplar_capacity),
            user_views: vec![0u32; users],
            user_creates: vec![0u32; users],
            day_viewers: FixedBitset::new(users),
            day_broadcasters: FixedBitset::new(users),
        }
    }

    /// Samples one slot and folds it. Missed (outage) broadcasts are
    /// still sampled in full: ground truth — tallies, day stats, the
    /// `missed` count — accounts for them exactly as the single-shard
    /// path does.
    fn fold_slot(
        &mut self,
        sampler: &RecordSampler,
        slot: ScheduledBroadcast,
        followers: u64,
        observed: bool,
    ) {
        self.user_creates[slot.broadcaster as usize] += 1;
        self.day_broadcasters.insert(slot.broadcaster);
        let (user_views, day_viewers) = (&mut self.user_views, &mut self.day_viewers);
        let record = sampler.sample(slot, followers, |viewer| {
            user_views[viewer as usize] += 1;
            day_viewers.insert(viewer);
        });
        if observed {
            self.acc.observe(record);
        } else {
            self.acc.miss();
        }
    }

    fn tracked_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.acc.tracked_bytes()
            + self.user_views.capacity() * std::mem::size_of::<u32>()
            + self.user_creates.capacity() * std::mem::size_of::<u32>()
            + self.day_viewers.tracked_bytes()
            + self.day_broadcasters.tracked_bytes()
    }
}

/// One day's work for one shard: the slots it owns, with the
/// coordinator-decided follower count and outage verdict attached.
type Slate = Vec<(ScheduledBroadcast, u64, bool)>;

/// Runs each shard's slate, one part per shard. Shards are mutually
/// independent within a day, so every part count folds to identical
/// shard states.
fn run_day(sampler: &RecordSampler, shards: &mut [ShardFold], slates: &[Slate]) {
    run_parts(shards.iter_mut().zip(slates).collect(), |(shard, slate)| {
        for &(slot, followers, observed) in slate {
            shard.fold_slot(sampler, slot, followers, observed);
        }
    });
}

/// Runs the measurement campaign over `workers` user-space shards
/// against a caller-supplied follow graph (which must have been built
/// with [`livescope_workload::default_graph_seed`] for output to match
/// [`run_campaign_streaming`](crate::run_campaign_streaming)).
///
/// Day loop: the coordinator drains the day's [`ScheduleStream`] slots,
/// attaches follower counts and sequential [`OutageFilter`] verdicts,
/// and partitions them by `broadcaster % workers`; shards sample and
/// fold their slates (on scoped threads when `workers > 1`); at the
/// day barrier the coordinator unions the shard bitsets in shard order
/// into that day's [`DayStats`]. After the last day, shard accumulators
/// merge in shard order `0..workers`.
///
/// Output is byte-identical to
/// [`run_campaign_streaming`](crate::run_campaign_streaming) for every
/// worker count (the module docs say why; `tests/`,
/// `core/tests/parallel_replay.rs` and `baselines/REPLAY_workers.json`
/// pin it).
pub fn run_campaign_sharded_with_graph(
    scenario: &ScenarioConfig,
    graph: &DiGraph,
    campaign: &CampaignConfig,
    workers: usize,
    exemplar_capacity: usize,
) -> (DatasetSummary, ShardedRunStats) {
    let workers = workers.max(1);
    assert_eq!(
        graph.node_count(),
        scenario.users,
        "supplied graph must cover the user population"
    );
    let schedule = ScheduleStream::new(scenario);
    let schedule_tracked = schedule.tracked_bytes();
    let mut schedule = schedule.peekable();
    let sampler = RecordSampler::new(scenario);
    let mut filter = OutageFilter::new(campaign);
    let mut shards: Vec<ShardFold> = (0..workers)
        .map(|_| ShardFold::new(campaign, scenario.days, scenario.users, exemplar_capacity))
        .collect();
    let mut slates: Vec<Slate> = vec![Vec::new(); workers];
    let mut daily: Vec<DayStats> = Vec::with_capacity(scenario.days as usize);
    let mut scratch_viewers = FixedBitset::new(scenario.users);
    let mut scratch_broadcasters = FixedBitset::new(scenario.users);
    let mut records = 0u64;
    let mut barrier_wall_s = 0.0f64;
    let mut peak_tracked_bytes = 0usize;

    for day in 0..scenario.days {
        for slate in &mut slates {
            slate.clear();
        }
        let mut day_broadcasts = 0u64;
        while let Some(slot) = schedule.next_if(|s| s.day == day) {
            // Follower lookups and outage verdicts happen here, in id
            // order — the exact draw order the single-shard path uses.
            let followers = graph.in_degree(slot.broadcaster) as u64;
            let observed = filter.observes(slot.day);
            slates[slot.broadcaster as usize % workers].push((slot, followers, observed));
            day_broadcasts += 1;
        }
        records += day_broadcasts;

        run_day(&sampler, &mut shards, &slates);

        // Day barrier: union the shard-local distinct-user bitsets in
        // fixed shard order 0..K (union is commutative — the fixed order
        // is hygiene, not load-bearing) and close the day.
        let t0 = Instant::now();
        scratch_viewers.clear();
        scratch_broadcasters.clear();
        for shard in &mut shards {
            scratch_viewers.union_with(&shard.day_viewers);
            scratch_broadcasters.union_with(&shard.day_broadcasters);
            shard.day_viewers.clear();
            shard.day_broadcasters.clear();
        }
        daily.push(DayStats {
            day,
            broadcasts: day_broadcasts,
            active_viewers: scratch_viewers.len() as u64,
            active_broadcasters: scratch_broadcasters.len() as u64,
        });
        barrier_wall_s += t0.elapsed().as_secs_f64();

        let tracked = schedule_tracked
            + sampler.tracked_bytes()
            + shards.iter().map(ShardFold::tracked_bytes).sum::<usize>()
            + slates
                .iter()
                .map(|s| s.capacity() * std::mem::size_of::<(ScheduledBroadcast, u64, bool)>())
                .sum::<usize>()
            + scratch_viewers.tracked_bytes()
            + scratch_broadcasters.tracked_bytes();
        peak_tracked_bytes = peak_tracked_bytes.max(tracked);
    }

    // Final merge, fixed shard order 0..K. Order *is* load-bearing here:
    // the exemplar reservoir merge is order-stable only under the
    // (priority, id) total order, and fixing the order makes the whole
    // pipeline's bytes independent of worker scheduling by construction.
    let t0 = Instant::now();
    let mut iter = shards.into_iter();
    let mut first = iter.next().expect("at least one shard");
    for shard in iter {
        first.acc.merge(&shard.acc);
        for (mine, theirs) in first.user_views.iter_mut().zip(&shard.user_views) {
            *mine += theirs;
        }
        for (mine, theirs) in first.user_creates.iter_mut().zip(&shard.user_creates) {
            *mine += theirs;
        }
    }
    let merge_wall_s = t0.elapsed().as_secs_f64();

    let summary = first.acc.finish(WorkloadSummary {
        config: scenario.clone(),
        daily,
        user_views: first.user_views,
        user_creates: first.user_creates,
    });
    let stats = ShardedRunStats {
        workers,
        records,
        merge_wall_s,
        barrier_wall_s,
        peak_tracked_bytes,
    };
    (summary, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::{run_campaign_streaming, DEFAULT_EXEMPLARS};
    use livescope_workload::{default_graph_seed, default_graph_spec, generate_streaming};

    fn small_config() -> ScenarioConfig {
        ScenarioConfig {
            days: 12,
            users: 1_200,
            base_daily_broadcasts: 55.0,
            ..ScenarioConfig::periscope_study()
        }
    }

    fn outage_campaign() -> CampaignConfig {
        CampaignConfig {
            outage_days: Some((4, 6)),
            outage_loss: 0.5,
            ..CampaignConfig::periscope_study()
        }
    }

    /// Sharded campaign over the scenario's default follow graph.
    fn sharded(scenario: &ScenarioConfig, campaign: &CampaignConfig, k: usize) -> DatasetSummary {
        let graph = DiGraph::generate(&default_graph_spec(scenario), default_graph_seed(scenario));
        run_campaign_sharded_with_graph(scenario, &graph, campaign, k, DEFAULT_EXEMPLARS).0
    }

    fn assert_summaries_identical(a: &DatasetSummary, b: &DatasetSummary, label: &str) {
        assert_eq!(a.broadcasts(), b.broadcasts(), "{label}: broadcasts");
        assert_eq!(a.missed, b.missed, "{label}: missed");
        assert_eq!(a.broadcasters(), b.broadcasters(), "{label}: broadcasters");
        assert_eq!(a.total_views(), b.total_views(), "{label}: views");
        assert_eq!(a.mobile_views(), b.mobile_views(), "{label}: mobile");
        assert_eq!(a.hearts_total, b.hearts_total, "{label}: hearts");
        assert_eq!(a.comments_total, b.comments_total, "{label}: comments");
        assert_eq!(
            a.zero_viewer_broadcasts, b.zero_viewer_broadcasts,
            "{label}: zero-viewer"
        );
        assert_eq!(a.hls_broadcasts, b.hls_broadcasts, "{label}: hls");
        assert_eq!(a.recorded_per_day, b.recorded_per_day, "{label}: per-day");
        assert_eq!(a.user_views, b.user_views, "{label}: user views");
        assert_eq!(a.user_creates, b.user_creates, "{label}: user creates");
        assert_eq!(a.daily.len(), b.daily.len(), "{label}: daily len");
        for (x, y) in a.daily.iter().zip(&b.daily) {
            assert_eq!(x.broadcasts, y.broadcasts, "{label}: day {}", x.day);
            assert_eq!(x.active_viewers, y.active_viewers, "{label}: day {}", x.day);
            assert_eq!(
                x.active_broadcasters, y.active_broadcasters,
                "{label}: day {}",
                x.day
            );
        }
        assert_eq!(
            a.duration_secs.series(150),
            b.duration_secs.series(150),
            "{label}: duration sketch"
        );
        assert_eq!(
            a.viewers.series(150),
            b.viewers.series(150),
            "{label}: viewers sketch"
        );
        assert_eq!(
            a.hearts.series(120),
            b.hearts.series(120),
            "{label}: hearts sketch"
        );
        assert_eq!(
            a.comments.series(120),
            b.comments.series(120),
            "{label}: comments sketch"
        );
        let ah: Vec<(u64, u64)> = a
            .exemplars
            .iter()
            .map(|m| (m.broadcast_hash, m.record.id))
            .collect();
        let bh: Vec<(u64, u64)> = b
            .exemplars
            .iter()
            .map(|m| (m.broadcast_hash, m.record.id))
            .collect();
        assert_eq!(ah, bh, "{label}: exemplar reservoir");
    }

    #[test]
    fn sharded_matches_streaming_for_every_k() {
        let scenario = small_config();
        let campaign = outage_campaign();
        let reference =
            run_campaign_streaming(generate_streaming(&scenario), &campaign, DEFAULT_EXEMPLARS);
        for k in [1, 2, 3, 5, 8] {
            let sharded = sharded(&scenario, &campaign, k);
            assert_summaries_identical(&sharded, &reference, &format!("K={k}"));
        }
    }

    #[test]
    fn sharded_matches_streaming_without_outage() {
        let scenario = ScenarioConfig {
            days: 8,
            users: 700,
            base_daily_broadcasts: 40.0,
            ..ScenarioConfig::meerkat_study()
        };
        let campaign = CampaignConfig::meerkat_study();
        let reference =
            run_campaign_streaming(generate_streaming(&scenario), &campaign, DEFAULT_EXEMPLARS);
        // 512 is the edge: more shards than ground-truth records, so most
        // shards fold an empty slate every day and merge as identities.
        assert!(reference.broadcasts() + reference.missed < 512);
        for k in [2, 6, 512] {
            let sharded = sharded(&scenario, &campaign, k);
            assert_summaries_identical(&sharded, &reference, &format!("meerkat K={k}"));
        }
    }

    #[test]
    fn sharded_run_is_deterministic_across_repeats() {
        let scenario = small_config();
        let campaign = outage_campaign();
        let a = sharded(&scenario, &campaign, 4);
        let b = sharded(&scenario, &campaign, 4);
        assert_summaries_identical(&a, &b, "repeat");
    }

    #[test]
    fn stats_account_every_record() {
        let scenario = small_config();
        let campaign = outage_campaign();
        let graph = DiGraph::generate(
            &default_graph_spec(&scenario),
            default_graph_seed(&scenario),
        );
        let (summary, stats) =
            run_campaign_sharded_with_graph(&scenario, &graph, &campaign, 3, DEFAULT_EXEMPLARS);
        assert_eq!(stats.records, summary.broadcasts() + summary.missed);
        assert_eq!(stats.workers, 3);
        assert!(stats.peak_tracked_bytes > 0);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let scenario = ScenarioConfig {
            days: 4,
            users: 300,
            base_daily_broadcasts: 20.0,
            ..ScenarioConfig::periscope_study()
        };
        let campaign = CampaignConfig::meerkat_study();
        let reference =
            run_campaign_streaming(generate_streaming(&scenario), &campaign, DEFAULT_EXEMPLARS);
        let sharded = sharded(&scenario, &campaign, 0);
        assert_summaries_identical(&sharded, &reference, "K=0→1");
    }
}
