//! The workload integrator: turns a [`ScenarioConfig`] into broadcast
//! records — either materialized as a full [`Workload`] or streamed one
//! record at a time through [`BroadcastStream`], which is the
//! bounded-memory path the longitudinal replay uses (DESIGN.md §10).
//!
//! Both paths are the *same* generator: [`generate_with_graph`] drains a
//! [`BroadcastStream`] into a `Vec`, so record sequences, RNG
//! consumption, and daily aggregates are identical by construction.
//!
//! The generator itself is split in two (DESIGN.md §13), so the replay
//! campaign can be partitioned across worker shards without changing a
//! single output byte:
//!
//! * [`ScheduleStream`] — the cheap, inherently sequential half: daily
//!   Poisson broadcast counts and weighted creator picks, drawn from the
//!   `"broadcasts"` stream in `(day, seq)` order;
//! * [`RecordSampler`] — the expensive half: everything else about a
//!   broadcast (start, duration, audience, interactions, per-view viewer
//!   picks), drawn from a *per-record* stream
//!   `pool.fork_indexed("record", id)`, so a record is a pure function of
//!   `(seed, id, day, broadcaster, followers)` — independent of which
//!   thread samples it, or in what order.

use rand::rngs::SmallRng;

use livescope_graph::{DiGraph, FollowParams, GraphKind, GraphSpec};
use livescope_sim::{dist, RngPool};

use crate::arrivals;
use crate::bitset::FixedBitset;
use crate::duration::sample_duration;
use crate::interactions::sample_interactions;
use crate::pick::CumulativeTable;
use crate::popularity::sample_audience;
use crate::scenario::{App, ScenarioConfig};
use crate::types::{BroadcastRecord, DayStats, Workload, WorkloadSummary};

/// Pareto exponent of broadcast-creation propensity (Fig 6 "create" lines:
/// a small cadre of users produces most broadcasts).
const CREATOR_ALPHA: f64 = 1.30;

/// Generates the complete workload for a scenario.
pub fn generate(config: &ScenarioConfig) -> Workload {
    generate_with_graph(config, None)
}

/// Like [`generate`] but accepts a pre-built follow graph (the Table 2 /
/// Fig 7 experiments reuse one graph across analyses).
pub fn generate_with_graph(config: &ScenarioConfig, graph: Option<&DiGraph>) -> Workload {
    let mut stream = match graph {
        Some(g) => generate_streaming_with_graph(config, g),
        None => generate_streaming(config),
    };
    let mut broadcasts = Vec::new();
    for record in &mut stream {
        broadcasts.push(record);
    }
    let summary = stream.into_summary();
    Workload {
        config: summary.config,
        broadcasts,
        daily: summary.daily,
        user_views: summary.user_views,
        user_creates: summary.user_creates,
    }
}

/// Streaming variant of [`generate`]: yields every [`BroadcastRecord`] in
/// deterministic `(day, seq)` order without ever materializing the
/// `broadcasts` vector. The stream owns its follow graph.
pub fn generate_streaming(config: &ScenarioConfig) -> BroadcastStream<'static> {
    config.validate().expect("invalid ScenarioConfig");
    let pool = RngPool::new(config.seed);
    let graph = default_graph(config, &pool);
    BroadcastStream::new(config, GraphRef::Owned(graph))
}

/// Like [`generate_streaming`] but borrowing a pre-built follow graph.
pub fn generate_streaming_with_graph<'a>(
    config: &ScenarioConfig,
    graph: &'a DiGraph,
) -> BroadcastStream<'a> {
    config.validate().expect("invalid ScenarioConfig");
    assert_eq!(
        graph.node_count(),
        config.users,
        "supplied graph must cover the user population"
    );
    BroadcastStream::new(config, GraphRef::Borrowed(graph))
}

/// Owned-or-borrowed follow graph behind a [`BroadcastStream`].
enum GraphRef<'a> {
    /// Graph built by the stream itself (the default path).
    Owned(DiGraph),
    /// Caller-supplied graph shared across analyses.
    Borrowed(&'a DiGraph),
}

impl GraphRef<'_> {
    fn get(&self) -> &DiGraph {
        match self {
            GraphRef::Owned(g) => g,
            GraphRef::Borrowed(g) => g,
        }
    }
}

/// One slot in the broadcast schedule: the cheap, sequential half of a
/// broadcast record — *who* broadcasts, *when* (which day), under *which*
/// global id. [`RecordSampler::sample`] expands a slot into a full
/// [`BroadcastRecord`] from the slot's own per-record RNG stream, so slots
/// can be partitioned across shards freely.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduledBroadcast {
    /// Global broadcast id, strictly increasing from 1 in schedule order.
    pub id: u64,
    /// Day index within the study window.
    pub day: u32,
    /// The broadcasting user.
    pub broadcaster: u32,
}

/// The sequential half of the generator: daily Poisson broadcast counts
/// and weighted creator picks, drawn in `(day, seq)` order from the
/// `"broadcasts"` stream of the scenario's [`RngPool`].
///
/// This is the *only* part of workload generation with cross-record RNG
/// dependence; it holds `O(users)` state (the creator-propensity table)
/// and emits a few dozen bytes per record, so a coordinator can drain it
/// serially while [`RecordSampler`] does the heavy per-record sampling on
/// worker shards (DESIGN.md §13).
pub struct ScheduleStream {
    config: ScenarioConfig,
    creators: CumulativeTable,
    rng: SmallRng,
    /// Day currently being emitted.
    day: u32,
    /// Slots still to emit for the current day.
    remaining_today: u64,
    /// True once the current day's count has been sampled.
    day_sampled: bool,
    next_id: u64,
}

impl ScheduleStream {
    /// Builds the schedule for a scenario. Panics on an invalid config.
    pub fn new(config: &ScenarioConfig) -> ScheduleStream {
        config.validate().expect("invalid ScenarioConfig");
        let pool = RngPool::new(config.seed);
        let creators = CumulativeTable::new(
            &mut pool.fork("creator-propensity"),
            config.users,
            config.creator_inactive_fraction,
            |rng| dist::pareto(rng, 1.0, CREATOR_ALPHA),
        );
        ScheduleStream {
            config: config.clone(),
            creators,
            rng: pool.fork("broadcasts"),
            day: 0,
            remaining_today: 0,
            day_sampled: false,
            next_id: 1,
        }
    }

    /// The scenario being scheduled.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// Bytes of heap + inline storage held by the schedule — `O(users)`
    /// for the creator-propensity table and its guide.
    pub fn tracked_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.creators.heap_bytes()
    }
}

impl Iterator for ScheduleStream {
    type Item = ScheduledBroadcast;

    fn next(&mut self) -> Option<ScheduledBroadcast> {
        while self.remaining_today == 0 {
            if self.day_sampled {
                self.day += 1;
                self.day_sampled = false;
            }
            if self.day >= self.config.days {
                return None;
            }
            self.remaining_today =
                arrivals::sample_daily_broadcasts(&mut self.rng, &self.config, self.day);
            self.day_sampled = true;
        }
        let broadcaster = self.creators.pick(&mut self.rng);
        let slot = ScheduledBroadcast {
            id: self.next_id,
            day: self.day,
            broadcaster,
        };
        self.next_id += 1;
        self.remaining_today -= 1;
        Some(slot)
    }
}

/// The data-parallel half of the generator: expands a
/// [`ScheduledBroadcast`] into a full [`BroadcastRecord`].
///
/// Every draw (start time, duration, audience, interactions, per-view
/// viewer picks) comes from the slot's *own* forked stream,
/// `pool.fork_indexed("record", slot.id)`, making the record a pure
/// function of `(seed, id, day, broadcaster, followers)`. Shards can
/// therefore sample disjoint slot subsets in any order — on any thread —
/// and produce exactly the bytes the sequential path produces.
///
/// The sampler is immutable (`sample` takes `&self`) and cheap to share
/// across threads; it holds `O(users)` state (the viewer-propensity
/// table).
pub struct RecordSampler {
    config: ScenarioConfig,
    viewers: CumulativeTable,
    pool: RngPool,
}

impl RecordSampler {
    /// Builds the sampler for a scenario. Panics on an invalid config.
    pub fn new(config: &ScenarioConfig) -> RecordSampler {
        config.validate().expect("invalid ScenarioConfig");
        let pool = RngPool::new(config.seed);
        let viewers = CumulativeTable::new(
            &mut pool.fork("viewer-propensity"),
            config.users,
            config.viewer_inactive_fraction,
            |rng| dist::log_normal(rng, 0.0, config.viewer_activity_sigma),
        );
        RecordSampler {
            config: config.clone(),
            viewers,
            pool,
        }
    }

    /// The scenario being sampled.
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// Expands one schedule slot into a full record. `followers` is the
    /// broadcaster's in-degree in the follow graph. `on_mobile_view` is
    /// invoked once per attributed mobile view with the viewing user's id
    /// (for Fig 6 / Table 1 unique-viewer accounting); the picks happen in
    /// a fixed order within the record's private stream.
    pub fn sample(
        &self,
        slot: ScheduledBroadcast,
        followers: u64,
        mut on_mobile_view: impl FnMut(u32),
    ) -> BroadcastRecord {
        let mut rng = self.pool.fork_indexed("record", slot.id);
        let start = arrivals::sample_start_time(&mut rng, slot.day);
        let dur = sample_duration(&mut rng, &self.config);
        let audience = sample_audience(&mut rng, &self.config, followers);
        let inter = sample_interactions(&mut rng, &self.config, audience.total, dur.as_secs_f64());
        for _ in 0..audience.mobile {
            on_mobile_view(self.viewers.pick(&mut rng));
        }
        BroadcastRecord {
            id: slot.id,
            broadcaster: slot.broadcaster,
            day: slot.day,
            start,
            duration: dur,
            followers,
            viewers: audience.total,
            mobile_viewers: audience.mobile,
            hls_viewers: audience.hls,
            hearts: inter.hearts,
            comments: inter.comments,
        }
    }

    /// Bytes of heap + inline storage held by the sampler — `O(users)`
    /// for the viewer-propensity table and its guide.
    pub fn tracked_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.viewers.heap_bytes()
    }
}

/// An iterator of [`BroadcastRecord`]s in `(day, seq)` order.
///
/// Composes a [`ScheduleStream`] and a [`RecordSampler`] with the
/// ground-truth accounting (per-user tallies, per-day aggregates, two
/// reusable [`FixedBitset`]s for distinct-user counting) — `O(users +
/// days)` state total. Because every record draws from its own
/// `fork_indexed("record", id)` stream, this single-threaded composition
/// is byte-identical to the sharded fold for any worker count
/// (DESIGN.md §13).
///
/// Drive it to exhaustion, then call [`BroadcastStream::into_summary`]
/// for the daily/user aggregates (a [`WorkloadSummary`]).
pub struct BroadcastStream<'a> {
    schedule: ScheduleStream,
    sampler: RecordSampler,
    graph: GraphRef<'a>,
    user_views: Vec<u32>,
    user_creates: Vec<u32>,
    daily: Vec<DayStats>,
    day_viewers: FixedBitset,
    day_broadcasters: FixedBitset,
    /// Day whose aggregates are accumulating (== `daily.len()`).
    acct_day: u32,
    /// Records seen so far for `acct_day`.
    day_count: u64,
}

impl<'a> BroadcastStream<'a> {
    fn new(config: &ScenarioConfig, graph: GraphRef<'a>) -> BroadcastStream<'a> {
        BroadcastStream {
            schedule: ScheduleStream::new(config),
            sampler: RecordSampler::new(config),
            graph,
            user_views: vec![0u32; config.users],
            user_creates: vec![0u32; config.users],
            daily: Vec::with_capacity(config.days as usize),
            day_viewers: FixedBitset::new(config.users),
            day_broadcasters: FixedBitset::new(config.users),
            acct_day: 0,
            day_count: 0,
        }
    }

    /// The scenario being generated.
    pub fn config(&self) -> &ScenarioConfig {
        self.schedule.config()
    }

    /// The follow graph backing follower counts.
    pub fn graph(&self) -> &DiGraph {
        self.graph.get()
    }

    /// Closes out the accounting day: records its aggregates and resets
    /// the distinct-user bitsets (keeping their allocations).
    fn finish_day(&mut self) {
        self.daily.push(DayStats {
            day: self.acct_day,
            broadcasts: self.day_count,
            active_viewers: self.day_viewers.len() as u64,
            active_broadcasters: self.day_broadcasters.len() as u64,
        });
        self.day_viewers.clear();
        self.day_broadcasters.clear();
        self.acct_day += 1;
        self.day_count = 0;
    }

    /// Consumes the stream, draining any unread records, and returns the
    /// accumulated aggregates.
    pub fn into_summary(mut self) -> WorkloadSummary {
        for _ in &mut self {}
        WorkloadSummary {
            config: self.schedule.config().clone(),
            daily: self.daily,
            user_views: self.user_views,
            user_creates: self.user_creates,
        }
    }

    /// Bytes of heap + inline storage held by the stream's accumulators
    /// and sampler tables — `O(users + days)`, independent of how many
    /// records have been yielded. The follow graph (an input, shared
    /// across paths) is accounted separately by the bench.
    pub fn tracked_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.schedule.tracked_bytes()
            + self.sampler.tracked_bytes()
            + self.user_views.capacity() * std::mem::size_of::<u32>()
            + self.user_creates.capacity() * std::mem::size_of::<u32>()
            + self.daily.capacity() * std::mem::size_of::<DayStats>()
            + self.day_viewers.tracked_bytes()
            + self.day_broadcasters.tracked_bytes()
    }
}

impl Iterator for BroadcastStream<'_> {
    type Item = BroadcastRecord;

    fn next(&mut self) -> Option<BroadcastRecord> {
        let Some(slot) = self.schedule.next() else {
            // Close every remaining day (including trailing zero-broadcast
            // days) exactly once; further calls fall through harmlessly.
            while self.acct_day < self.schedule.config().days {
                self.finish_day();
            }
            return None;
        };
        while slot.day > self.acct_day {
            self.finish_day();
        }
        self.day_count += 1;
        self.user_creates[slot.broadcaster as usize] += 1;
        self.day_broadcasters.insert(slot.broadcaster);
        let followers = self.graph.get().in_degree(slot.broadcaster) as u64;
        let (user_views, day_viewers) = (&mut self.user_views, &mut self.day_viewers);
        let record = self.sampler.sample(slot, followers, |viewer| {
            user_views[viewer as usize] += 1;
            day_viewers.insert(viewer);
        });
        Some(record)
    }
}

/// The scenario's default follow-graph recipe: Periscope-like for
/// Periscope, sparser for Meerkat (whose graph "was not fully connected",
/// §3.1). Benches that want build statistics generate from this spec
/// themselves (seeded with [`default_graph_seed`]) and hand the graph to
/// [`generate_streaming_with_graph`].
pub fn default_graph_spec(config: &ScenarioConfig) -> GraphSpec {
    match config.app {
        App::Periscope => GraphSpec::periscope().with_nodes(config.users),
        App::Meerkat => GraphSpec {
            nodes: config.users,
            kind: GraphKind::Follow(FollowParams {
                mean_follows: 4.0,
                preferential_bias: 0.7,
                triadic_closure: 0.2,
                disassortative_passes: 1.0,
            }),
        },
    }
}

/// The seed [`generate_streaming`] uses for its owned graph. External
/// builders must use this seed for the workload to be identical to the
/// owned-graph path.
pub fn default_graph_seed(config: &ScenarioConfig) -> u64 {
    RngPool::new(config.seed).stream_seed("graph")
}

/// The scenario's default follow graph, built from [`default_graph_spec`].
pub fn default_graph(config: &ScenarioConfig, pool: &RngPool) -> DiGraph {
    DiGraph::generate(&default_graph_spec(config), pool.stream_seed("graph"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_periscope() -> ScenarioConfig {
        ScenarioConfig {
            days: 21,
            users: 3_000,
            base_daily_broadcasts: 60.0,
            ..ScenarioConfig::periscope_study()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let config = small_periscope();
        let a = generate(&config);
        let b = generate(&config);
        assert_eq!(a.total_broadcasts(), b.total_broadcasts());
        assert_eq!(a.total_views(), b.total_views());
        assert_eq!(a.user_views, b.user_views);
        let mut c2 = config.clone();
        c2.seed ^= 1;
        let c = generate(&c2);
        assert_ne!(a.total_views(), c.total_views());
    }

    #[test]
    fn streaming_matches_materialized() {
        // The materialized path is literally the drained stream, but pin
        // the equivalence through the public APIs anyway: same records in
        // the same order, same aggregates, for both apps.
        for config in [small_periscope(), {
            let mut c = ScenarioConfig::meerkat_study();
            c.days = 12;
            c.users = 900;
            c
        }] {
            let w = generate(&config);
            let mut stream = generate_streaming(&config);
            let mut streamed = 0usize;
            for (i, record) in (&mut stream).enumerate() {
                let b = &w.broadcasts[i];
                assert_eq!(record.id, b.id);
                assert_eq!(record.broadcaster, b.broadcaster);
                assert_eq!(record.day, b.day);
                assert_eq!(record.start, b.start);
                assert_eq!(record.duration, b.duration);
                assert_eq!(record.viewers, b.viewers);
                assert_eq!(record.hearts, b.hearts);
                streamed += 1;
            }
            assert_eq!(streamed as u64, w.total_broadcasts());
            let summary = stream.into_summary();
            assert_eq!(summary.user_views, w.user_views);
            assert_eq!(summary.user_creates, w.user_creates);
            assert_eq!(summary.daily.len(), w.daily.len());
            for (s, m) in summary.daily.iter().zip(&w.daily) {
                assert_eq!(s.broadcasts, m.broadcasts);
                assert_eq!(s.active_viewers, m.active_viewers);
                assert_eq!(s.active_broadcasters, m.active_broadcasters);
            }
        }
    }

    #[test]
    fn records_are_pure_functions_of_their_slot() {
        // The sharded replay's whole correctness story: expanding a slot
        // must not depend on sampling order, interleaving, or which other
        // slots were expanded. Sample the schedule forward and backward
        // and get the same bytes.
        let config = small_periscope();
        let pool = RngPool::new(config.seed);
        let graph = default_graph(&config, &pool);
        let sampler = RecordSampler::new(&config);
        let slots: Vec<ScheduledBroadcast> = ScheduleStream::new(&config).collect();
        let forward: Vec<BroadcastRecord> = slots
            .iter()
            .map(|&s| sampler.sample(s, graph.in_degree(s.broadcaster) as u64, |_| {}))
            .collect();
        let mut backward: Vec<BroadcastRecord> = slots
            .iter()
            .rev()
            .map(|&s| sampler.sample(s, graph.in_degree(s.broadcaster) as u64, |_| {}))
            .collect();
        backward.reverse();
        assert_eq!(forward, backward);
        // And the composed stream yields exactly these records.
        let streamed: Vec<BroadcastRecord> = generate_streaming(&config).collect();
        assert_eq!(forward, streamed);
    }

    #[test]
    fn schedule_matches_stream_prefix() {
        // The schedule's (id, day, broadcaster) triples are exactly the
        // stream's, in order.
        let config = small_periscope();
        let slots: Vec<ScheduledBroadcast> = ScheduleStream::new(&config).collect();
        let records: Vec<BroadcastRecord> = generate_streaming(&config).collect();
        assert_eq!(slots.len(), records.len());
        for (s, r) in slots.iter().zip(&records) {
            assert_eq!((s.id, s.day, s.broadcaster), (r.id, r.day, r.broadcaster));
        }
    }

    #[test]
    fn stream_memory_is_independent_of_record_count() {
        // Same population, 4× the days (so ~4× the records): tracked
        // bytes may grow only by the per-day aggregates, never with the
        // record count.
        let short = small_periscope();
        let mut long = small_periscope();
        long.days *= 4;
        let mut s1 = generate_streaming(&short);
        for _ in &mut s1 {}
        let mut s2 = generate_streaming(&long);
        for _ in &mut s2 {}
        let per_day_growth = (long.days - short.days) as usize * std::mem::size_of::<DayStats>();
        assert!(
            s2.tracked_bytes() <= s1.tracked_bytes() + per_day_growth,
            "stream state grew with record count: {} vs {}",
            s2.tracked_bytes(),
            s1.tracked_bytes()
        );
    }

    #[test]
    fn summary_drains_unread_records() {
        // Taking the summary early must still account every record.
        let config = small_periscope();
        let w = generate(&config);
        let summary = generate_streaming(&config).into_summary();
        assert_eq!(summary.total_broadcasts(), w.total_broadcasts());
        assert_eq!(summary.mobile_views(), w.mobile_views());
        assert_eq!(summary.unique_viewers(), w.unique_viewers());
        assert_eq!(summary.unique_broadcasters(), w.unique_broadcasters());
    }

    #[test]
    fn record_invariants_hold() {
        let w = generate(&small_periscope());
        assert!(w.total_broadcasts() > 500);
        let mut last_id = 0;
        for b in &w.broadcasts {
            assert!(b.id > last_id, "ids must be strictly increasing");
            last_id = b.id;
            assert!(b.mobile_viewers <= b.viewers);
            assert!(b.hls_viewers <= b.viewers);
            assert!((b.broadcaster as usize) < w.config.users);
            assert!(b.day < w.config.days);
            assert_eq!(
                b.day as u64,
                b.start.as_micros() / (arrivals::DAY_SECS * 1_000_000)
            );
        }
    }

    #[test]
    fn daily_stats_are_consistent_with_records() {
        let w = generate(&small_periscope());
        for (day, stats) in w.daily.iter().enumerate() {
            let records = w.broadcasts.iter().filter(|b| b.day == day as u32).count() as u64;
            assert_eq!(stats.broadcasts, records, "day {day}");
            assert!(stats.active_broadcasters <= stats.broadcasts.max(1));
        }
    }

    #[test]
    fn viewer_to_broadcaster_ratio_is_near_ten() {
        // Fig 2's headline: daily active viewers ≈ 10× daily active
        // broadcasters on Periscope.
        let w = generate(&small_periscope());
        let (mut viewers, mut broadcasters) = (0.0, 0.0);
        for d in &w.daily {
            viewers += d.active_viewers as f64;
            broadcasters += d.active_broadcasters as f64;
        }
        let ratio = viewers / broadcasters;
        assert!(
            (4.0..25.0).contains(&ratio),
            "viewer:broadcaster ratio {ratio}"
        );
    }

    #[test]
    fn user_tallies_match_broadcast_totals() {
        let w = generate(&small_periscope());
        let views_from_users: u64 = w.user_views.iter().map(|&v| v as u64).sum();
        assert_eq!(views_from_users, w.mobile_views());
        let creates_from_users: u64 = w.user_creates.iter().map(|&c| c as u64).sum();
        assert_eq!(creates_from_users, w.total_broadcasts());
    }

    #[test]
    fn viewing_activity_is_skewed_like_fig6() {
        let w = generate(&small_periscope());
        let mut views: Vec<u32> = w.user_views.iter().copied().filter(|&v| v > 0).collect();
        views.sort_unstable();
        let median = views[views.len() / 2] as f64;
        let top = views[(views.len() as f64 * 0.85) as usize] as f64;
        assert!(
            top >= median * 3.0,
            "top-15% threshold {top} vs median {median} — not skewed enough"
        );
    }

    #[test]
    fn meerkat_generates_mostly_empty_broadcasts() {
        let mut config = ScenarioConfig::meerkat_study();
        config.days = 10;
        config.users = 800;
        let w = generate(&config);
        let zero = w.broadcasts.iter().filter(|b| b.viewers == 0).count() as f64
            / w.total_broadcasts() as f64;
        assert!((0.5..0.7).contains(&zero), "zero fraction {zero}");
    }

    #[test]
    fn followers_correlate_with_viewers() {
        // Fig 7's qualitative claim, tested via rank buckets: broadcasts
        // by the most-followed decile must out-draw the least-followed.
        let w = generate(&small_periscope());
        let mut with_followers: Vec<(u64, u64)> = w
            .broadcasts
            .iter()
            .map(|b| (b.followers, b.viewers))
            .collect();
        with_followers.sort_by_key(|&(f, _)| f);
        let n = with_followers.len();
        // Medians, not means: the organic power-law tail throws 10K-viewer
        // outliers into every follower bucket (that is Fig 7's scatter),
        // but the *typical* audience must track follower count.
        let median = |slice: &[(u64, u64)]| {
            let mut v: Vec<u64> = slice.iter().map(|&(_, v)| v).collect();
            v.sort_unstable();
            v[v.len() / 2] as f64
        };
        let bottom = median(&with_followers[..n / 2]);
        let top = median(&with_followers[9 * n / 10..]);
        assert!(
            top >= bottom * 2.0,
            "top-decile median audience {top} vs bottom-half {bottom}"
        );
    }

    #[test]
    fn supplied_graph_must_match_population() {
        let config = small_periscope();
        let pool = RngPool::new(1);
        let wrong = DiGraph::generate(
            &GraphSpec {
                nodes: 10,
                kind: GraphKind::Follow(FollowParams {
                    mean_follows: 2.0,
                    preferential_bias: 0.5,
                    triadic_closure: 0.2,
                    disassortative_passes: 0.0,
                }),
            },
            pool.stream_seed("x"),
        );
        let result = std::panic::catch_unwind(|| generate_with_graph(&config, Some(&wrong)));
        assert!(result.is_err());
    }
}
