//! Shared helpers for the streaming-replay benches: the scaled Periscope
//! scenario, a full-surface [`DatasetSummary`] digest, and the worker
//! K-sweep behind the `workers` curve of `BENCH_replay.json` and the
//! `REPLAY_workers.json` regression baseline.
//!
//! The digest deliberately folds *everything the figures can render* —
//! every counter, both per-user tables, the daily series, all four
//! sketch series, and the exemplar reservoir keys — so two summaries
//! with equal digests produce byte-identical Fig 1–6 / Table 1
//! artifacts. That is what lets one `u64` per K stand in for the full
//! byte-identity sweep in `tests/parallel_replay.rs`.

use std::time::Instant;

use livescope_crawler::streaming::{DatasetSummary, DEFAULT_EXEMPLARS};
use livescope_crawler::{run_campaign_sharded, CampaignConfig};
use livescope_graph::DiGraph;
use livescope_sim::rng::splitmix64;
use livescope_workload::{generate_streaming_with_graph, ScenarioConfig};

/// Points per sketch series folded into [`summary_digest`]; matches the
/// densest figure rendering so no rendered bin escapes the digest.
const SERIES_POINTS: usize = 150;

/// The Periscope study at `divisor`: the paper-scale population and
/// daily-broadcast anchors divided by `divisor` instead of the default
/// 1000 (divisor 1 = 12M users, ~19.6M broadcasts over the 97 days).
pub fn scaled_periscope(divisor: f64) -> ScenarioConfig {
    let base = ScenarioConfig::periscope_study();
    let scale = base.scale_divisor / divisor;
    ScenarioConfig {
        users: (base.users as f64 * scale) as usize,
        base_daily_broadcasts: base.base_daily_broadcasts * scale,
        scale_divisor: divisor,
        ..base
    }
}

/// Order-sensitive splitmix64 fold (`h ← splitmix64(h ⊕ word)`).
fn fold(h: &mut u64, word: u64) {
    *h = splitmix64(*h ^ word);
}

/// Digest of the full observable surface of a finished campaign.
///
/// Covers every aggregate the usage experiment renders: scalar
/// counters, per-day ground truth and recorded series, both per-user
/// tables, all four quantile-sketch series (bit-exact, via
/// `f64::to_bits`), and the exemplar reservoir's `(hash, id)` keys in
/// reservoir order.
pub fn summary_digest(s: &DatasetSummary) -> u64 {
    let mut h = 0x5CA1AB1E_u64;
    for word in [
        s.broadcasts(),
        s.missed,
        s.broadcasters(),
        s.total_views(),
        s.mobile_views(),
        s.unique_viewers(),
        s.hearts_total,
        s.comments_total,
        s.zero_viewer_broadcasts,
        s.hls_broadcasts,
    ] {
        fold(&mut h, word);
    }
    for d in &s.daily {
        fold(&mut h, d.day as u64);
        fold(&mut h, d.broadcasts);
        fold(&mut h, d.active_viewers);
        fold(&mut h, d.active_broadcasters);
    }
    for &r in &s.recorded_per_day {
        fold(&mut h, r);
    }
    for &v in &s.user_views {
        fold(&mut h, v as u64);
    }
    for &c in &s.user_creates {
        fold(&mut h, c as u64);
    }
    for sketch in [&s.duration_secs, &s.viewers, &s.hearts, &s.comments] {
        for (x, y) in sketch.series(SERIES_POINTS) {
            fold(&mut h, x.to_bits());
            fold(&mut h, y.to_bits());
        }
    }
    for m in &s.exemplars {
        fold(&mut h, m.broadcast_hash);
        fold(&mut h, m.record.id);
    }
    h
}

/// One point on the worker scaling curve.
pub struct WorkerRun {
    /// Worker shard count (`K`).
    pub workers: usize,
    /// End-to-end replay wall seconds (graph excluded — it is shared).
    pub wall_s: f64,
    /// Seconds in the final fixed-order accumulator merge.
    pub merge_wall_s: f64,
    /// Seconds in day barriers (bitset unions + day stats).
    pub barrier_wall_s: f64,
    /// Ground-truth broadcasts processed (recorded + missed).
    pub records: u64,
    /// Peak tracked replay state across all shards.
    pub peak_tracked_bytes: usize,
    /// [`summary_digest`] of the finished campaign.
    pub digest: u64,
}

/// Runs the sharded Periscope campaign once per `K` in `workers`, each
/// over a fresh stream on a shared pre-built graph, digesting each
/// result. Callers assert the digests are identical across the sweep;
/// the wall/merge/barrier columns become the scaling curve.
pub fn worker_sweep(
    scenario: &ScenarioConfig,
    campaign: &CampaignConfig,
    graph: &DiGraph,
    workers: &[usize],
) -> Vec<WorkerRun> {
    workers
        .iter()
        .map(|&k| {
            let t0 = Instant::now();
            let stream = generate_streaming_with_graph(scenario, graph);
            let (summary, stats) = run_campaign_sharded(stream, campaign, k, DEFAULT_EXEMPLARS);
            let wall_s = t0.elapsed().as_secs_f64();
            WorkerRun {
                workers: k,
                wall_s,
                merge_wall_s: stats.merge_wall_s,
                barrier_wall_s: stats.barrier_wall_s,
                records: stats.records,
                peak_tracked_bytes: stats.peak_tracked_bytes,
                digest: summary_digest(&summary),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use livescope_crawler::run_campaign_streaming;
    use livescope_workload::generate_streaming;

    /// Absolute pins, captured before the guide-table pick existed:
    /// `parallel_replay` compares paths that all share the weighted pick,
    /// so only a committed value (here, and `bench_replay`'s divisor-1000
    /// record checksum) can see the pick itself change.
    /// Meerkat rides along because its propensity tables (σ = 1.0,
    /// 0.70 inactive creators) have a different shape from Periscope's.
    #[test]
    fn small_replay_digests_match_the_committed_pins() {
        let periscope = ScenarioConfig {
            days: 21,
            users: 3_000,
            base_daily_broadcasts: 60.0,
            ..ScenarioConfig::periscope_study()
        };
        let meerkat = ScenarioConfig {
            days: 12,
            users: 900,
            ..ScenarioConfig::meerkat_study()
        };
        let digest = |scenario: &ScenarioConfig, campaign: &CampaignConfig| {
            let summary =
                run_campaign_streaming(generate_streaming(scenario), campaign, DEFAULT_EXEMPLARS);
            assert!(summary.mobile_views() > 1_000, "pin must cover real picks");
            summary_digest(&summary)
        };
        let got = [
            digest(&periscope, &CampaignConfig::periscope_study()),
            digest(&meerkat, &CampaignConfig::meerkat_study()),
        ];
        assert_eq!(
            got.map(|d| format!("{d:#018x}")),
            ["0x453b34032a897cb8", "0xf7d40d8b0818f95a"],
            "[Periscope, Meerkat] replay digests drifted from the committed pins"
        );
    }
}
