//! Property tests for the [`StreamingCampaign`] merge law the sharded
//! replay (DESIGN.md §13) depends on: folding a record stream through
//! any partition into shard accumulators and merging them — in any
//! association order — must equal the single-accumulator fold exactly,
//! exemplar reservoir included. Mirrors the `QuantileSketch` merge
//! proptests in `livescope-analysis`.

use std::sync::OnceLock;

use livescope_crawler::{CampaignConfig, StreamingCampaign};
use livescope_workload::{generate_streaming, BroadcastRecord, ScenarioConfig};
use proptest::collection::vec;
use proptest::{prop_assert_eq, proptest};

/// A shared pool of realistic records (heavy-tailed viewers/hearts, real
/// day spread); generated once, sliced many ways by the properties.
fn record_pool() -> &'static [BroadcastRecord] {
    static POOL: OnceLock<Vec<BroadcastRecord>> = OnceLock::new();
    POOL.get_or_init(|| {
        let scenario = ScenarioConfig {
            days: 10,
            users: 900,
            base_daily_broadcasts: 45.0,
            ..ScenarioConfig::periscope_study()
        };
        generate_streaming(&scenario).collect()
    })
}

const DAYS: u32 = 10;
const USERS: usize = 900;
const RESERVOIR: usize = 16;

fn fold(records: &[BroadcastRecord]) -> StreamingCampaign {
    let campaign = CampaignConfig::periscope_study();
    let mut acc = StreamingCampaign::new(&campaign, DAYS, USERS, RESERVOIR);
    for r in records {
        acc.observe(r.clone());
    }
    acc
}

/// Full-state equality via the public read surface: close both
/// accumulators with identical (empty) ground truth and compare every
/// rendered aggregate, sketch series, and the exemplar reservoir.
fn assert_campaigns_equal(a: StreamingCampaign, b: StreamingCampaign) -> Result<(), String> {
    let empty = || livescope_workload::WorkloadSummary {
        config: ScenarioConfig {
            days: DAYS,
            users: USERS,
            ..ScenarioConfig::periscope_study()
        },
        daily: Vec::new(),
        user_views: vec![0; USERS],
        user_creates: vec![0; USERS],
    };
    let (a, b) = (a.finish(empty()), b.finish(empty()));
    prop_assert_eq!(a.broadcasts(), b.broadcasts());
    prop_assert_eq!(a.missed, b.missed);
    prop_assert_eq!(a.broadcasters(), b.broadcasters());
    prop_assert_eq!(a.total_views(), b.total_views());
    prop_assert_eq!(a.mobile_views(), b.mobile_views());
    prop_assert_eq!(a.hearts_total, b.hearts_total);
    prop_assert_eq!(a.comments_total, b.comments_total);
    prop_assert_eq!(a.zero_viewer_broadcasts, b.zero_viewer_broadcasts);
    prop_assert_eq!(a.hls_broadcasts, b.hls_broadcasts);
    prop_assert_eq!(&a.recorded_per_day, &b.recorded_per_day);
    prop_assert_eq!(a.duration_secs.series(150), b.duration_secs.series(150));
    prop_assert_eq!(a.viewers.series(150), b.viewers.series(150));
    prop_assert_eq!(a.hearts.series(120), b.hearts.series(120));
    prop_assert_eq!(a.comments.series(120), b.comments.series(120));
    let keys = |s: &livescope_crawler::DatasetSummary| -> Vec<(u64, u64)> {
        s.exemplars
            .iter()
            .map(|m| (m.broadcast_hash, m.record.id))
            .collect()
    };
    prop_assert_eq!(keys(&a), keys(&b));
    Ok(())
}

proptest! {
    #[test]
    fn merge_is_associative(
        splits in vec(0.0f64..1.0, 2..3),
    ) {
        let pool = record_pool();
        let mut cut: Vec<usize> = splits
            .iter()
            .map(|f| (f * pool.len() as f64) as usize)
            .collect();
        cut.sort_unstable();
        let (a, rest) = pool.split_at(cut[0]);
        let (b, c) = rest.split_at(cut[1] - cut[0]);
        // (a ⊕ b) ⊕ c
        let mut ab_c = fold(a);
        ab_c.merge(&fold(b));
        ab_c.merge(&fold(c));
        // a ⊕ (b ⊕ c)
        let mut bc = fold(b);
        bc.merge(&fold(c));
        let mut a_bc = fold(a);
        a_bc.merge(&bc);
        assert_campaigns_equal(ab_c, a_bc)?;
    }

    #[test]
    fn merge_equals_single_fold_for_any_partition(
        assignment in vec(0usize..4, 1..64),
        misses in vec(0usize..8, 0..16),
    ) {
        // Partition the pool across 4 shards by an arbitrary per-record
        // assignment (cycled), sprinkle misses, merge in shard order —
        // must equal one sequential fold of everything.
        let pool = record_pool();
        let campaign = CampaignConfig::periscope_study();
        let mut single = StreamingCampaign::new(&campaign, DAYS, USERS, RESERVOIR);
        let mut shards: Vec<StreamingCampaign> = (0..4)
            .map(|_| StreamingCampaign::new(&campaign, DAYS, USERS, RESERVOIR))
            .collect();
        for (i, r) in pool.iter().enumerate() {
            let shard = assignment[i % assignment.len()];
            single.observe(r.clone());
            shards[shard].observe(r.clone());
        }
        for &m in &misses {
            single.miss();
            shards[m % 4].miss();
        }
        let mut merged = shards.remove(0);
        for s in &shards {
            merged.merge(s);
        }
        assert_campaigns_equal(merged, single)?;
    }
}
