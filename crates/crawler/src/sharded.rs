//! The measurement campaign's one driver: K-shard replay of a
//! [`BroadcastStream`] with a deterministic fold/merge contract
//! (`crates/crawler/DESIGN.md`).
//!
//! [`run_campaign_sharded`] partitions the *user space* into K shards —
//! shard of a broadcast = `broadcaster % K` — and runs the expensive
//! half of generate → crawl → fold independently per shard, merging in
//! fixed shard order `0..K` at the end. Output is byte-identical for
//! every `(seed, divisor, K)`, with or without worker threads, because:
//!
//! 1. the per-record sampler draws from a *per-record* RNG stream
//!    ([`RecordSampler`](livescope_workload::RecordSampler)), so a
//!    record's bytes never depend on which shard samples it or when;
//! 2. the inherently sequential draws — daily schedule counts, creator
//!    picks ([`ScheduleStream`](livescope_workload::ScheduleStream)) and
//!    outage decisions ([`OutageFilter`], one decision per broadcast in
//!    id order) — stay on the coordinator, in the order a sequential
//!    fold makes them;
//! 3. every shard-local accumulator merges exactly (integer counters,
//!    bitset union, sketch bin addition, `(priority, id)`-ordered
//!    reservoir — see [`crate::streaming`] and [`GroundTruth`]), and
//!    merges happen in fixed shard order at fixed points (day barriers
//!    for the distinct-user bitsets, end of study for everything else).
//!
//! One shard folds its slate inline on the caller's thread — that is
//! [`run_campaign_streaming`](crate::run_campaign_streaming); with more,
//! each day's shard slates run on scoped worker threads
//! ([`livescope_sim::run_parts`]). Threads never share mutable state —
//! each worker owns its private shard — so the workspace's ban on
//! locks, cells and atomics holds by construction.

use livescope_sim::run_parts;
use livescope_workload::{BroadcastStream, GroundTruth, ScheduledBroadcast};

use crate::campaign::{CampaignConfig, OutageFilter};
use crate::streaming::{DatasetSummary, StreamingCampaign};

/// One shard's private slice of the campaign: the crawl it folds and
/// the ground truth of the records it samples. Never shared across
/// threads — moved into a worker for a day, merged at barriers.
struct Shard {
    acc: StreamingCampaign,
    truth: GroundTruth,
}

/// One day's work for one shard: the slots it owns, with the
/// coordinator-decided follower count and outage verdict attached.
type Slate = Vec<(ScheduledBroadcast, u64, bool)>;

/// Runs the measurement campaign over a fresh `stream`, its records
/// folded by `workers` user-space shards.
///
/// Day loop: the coordinator drains the day's schedule slots,
/// attaches follower counts from the stream's graph and sequential
/// [`OutageFilter`] verdicts, and partitions them by
/// `broadcaster % workers`; shards sample and fold their slates (on
/// scoped threads when `workers > 1`); at the day barrier shard 0, whose
/// [`GroundTruth`] is the stream's own, absorbs the other shards' day in
/// shard order and closes it into that day's `DayStats`. After the last
/// day, shard accumulators and tallies merge in shard order
/// `0..workers`.
///
/// Output is byte-identical for every worker count (the module docs say
/// why; `core/tests/parallel_replay.rs` and
/// `baselines/REPLAY_workers.json` pin it). `workers = 0` runs as 1.
///
/// # Panics
/// Panics when `stream` has already yielded a record.
pub fn run_campaign_sharded(
    stream: BroadcastStream<'_>,
    campaign: &CampaignConfig,
    workers: usize,
    exemplar_capacity: usize,
) -> DatasetSummary {
    let workers = workers.max(1);
    let scenario = stream.config().clone();
    let (schedule, sampler, graph, truth) = stream.into_parts();
    let mut schedule = schedule.peekable();
    let mut filter = OutageFilter::new(campaign);
    // Shard 0 adopts the stream's ledger; the others count afresh.
    let mut shards: Vec<Shard> = std::iter::once(truth)
        .chain((1..workers).map(|_| GroundTruth::new(&scenario)))
        .map(|truth| Shard {
            acc: StreamingCampaign::new(campaign, scenario.days, scenario.users, exemplar_capacity),
            truth,
        })
        .collect();
    let mut slates: Vec<Slate> = vec![Vec::new(); workers];

    for day in 0..scenario.days {
        for slate in &mut slates {
            slate.clear();
        }
        while let Some(slot) = schedule.next_if(|s| s.day == day) {
            // Follower lookups and outage verdicts happen here, in id
            // order — the exact draw order of a sequential fold.
            let followers = graph.in_degree(slot.broadcaster) as u64;
            let observed = filter.observes(slot.day);
            slates[slot.broadcaster as usize % workers].push((slot, followers, observed));
        }

        // Shards are mutually independent within a day, so every part
        // count folds to identical shard states.
        run_parts(
            shards.iter_mut().zip(&slates).collect(),
            |(shard, slate)| {
                for &(slot, followers, observed) in slate {
                    let record = shard.truth.sample(&sampler, slot, followers);
                    if observed {
                        shard.acc.observe(record);
                    } else {
                        shard.acc.miss();
                    }
                }
                // The ledger buffers its views; resolve the day's last
                // batch here, on the shard's own thread.
                shard.truth.flush(&sampler);
            },
        );

        // Day barrier: shard 0 absorbs shards 1..K in fixed order (union
        // is commutative — the fixed order is hygiene, not load-bearing)
        // and closes the day. Every ledger was flushed above; absorbing
        // or closing an unflushed one panics.
        let (first, rest) = shards.split_first_mut().expect("at least one shard");
        for shard in rest {
            first.truth.absorb_day(&mut shard.truth);
        }
        first.truth.close_day();
    }

    // Final merge, fixed shard order 0..K. Order *is* load-bearing here:
    // the exemplar reservoir merge is order-stable only under the
    // (priority, id) total order, and fixing the order makes the whole
    // pipeline's bytes independent of worker scheduling by construction.
    let mut iter = shards.into_iter();
    let mut first = iter.next().expect("at least one shard");
    for shard in iter {
        first.acc.merge(&shard.acc);
        first.truth.merge_tallies(&shard.truth);
    }
    first.acc.finish(first.truth.into_summary(scenario))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::{run_campaign_streaming, DEFAULT_EXEMPLARS};
    use livescope_workload::{generate_streaming, ScenarioConfig};

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

    /// The sequential oracle: crawl the stream record by record and fold
    /// it into one accumulator.
    fn sequential(scenario: &ScenarioConfig, campaign: &CampaignConfig) -> DatasetSummary {
        let mut stream = generate_streaming(scenario);
        let mut filter = OutageFilter::new(campaign);
        let mut acc =
            StreamingCampaign::new(campaign, scenario.days, scenario.users, DEFAULT_EXEMPLARS);
        for record in &mut stream {
            if filter.observes(record.day) {
                acc.observe(record);
            } else {
                acc.miss();
            }
        }
        acc.finish(stream.into_summary())
    }

    fn sharded(scenario: &ScenarioConfig, campaign: &CampaignConfig, k: usize) -> DatasetSummary {
        run_campaign_sharded(generate_streaming(scenario), campaign, k, DEFAULT_EXEMPLARS)
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
        let sketches =
            [&s.duration_secs, &s.viewers, &s.hearts, &s.comments].map(|k| k.series(150));
        let tables = (
            &s.daily,
            &s.user_views,
            &s.user_creates,
            &s.recorded_per_day,
        );
        (scalars, tables, sketches, &s.exemplars)
    }

    #[test]
    fn sharded_matches_streaming_for_every_k() {
        let scenario = small_config();
        let campaign = outage_campaign();
        let reference = sequential(&scenario, &campaign);
        for k in [1, 2, 3, 5, 8] {
            let sharded = sharded(&scenario, &campaign, k);
            assert_eq!(fields(&sharded), fields(&reference), "K={k}");
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
        let reference = sequential(&scenario, &campaign);
        // 512 is the edge: more shards than ground-truth records, so most
        // shards fold an empty slate every day and merge as identities.
        assert!(reference.broadcasts() + reference.missed < 512);
        for k in [2, 6, 512] {
            let sharded = sharded(&scenario, &campaign, k);
            assert_eq!(fields(&sharded), fields(&reference), "meerkat K={k}");
        }
    }

    #[test]
    fn sharded_run_is_deterministic_across_repeats() {
        let scenario = small_config();
        let campaign = outage_campaign();
        let a = sharded(&scenario, &campaign, 4);
        let b = sharded(&scenario, &campaign, 4);
        assert_eq!(fields(&a), fields(&b));
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
        assert_eq!(
            fields(&sharded(&scenario, &campaign, 0)),
            fields(&reference)
        );
    }

    #[test]
    #[should_panic(expected = "fresh BroadcastStream")]
    fn a_stream_advanced_by_one_record_is_rejected() {
        let mut stream = generate_streaming(&small_config());
        stream.next().expect("a record");
        run_campaign_sharded(stream, &outage_campaign(), 2, DEFAULT_EXEMPLARS);
    }
}
