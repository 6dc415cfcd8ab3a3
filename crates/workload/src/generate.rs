//! The workload integrator: turns a [`ScenarioConfig`] into a
//! [`BroadcastStream`] of broadcast records, the bounded-memory input of
//! the longitudinal replay (`crates/workload/DESIGN.md`).
//!
//! The generator is split in two, so each half can be timed on its own
//! and a record never depends on which records were sampled before it:
//!
//! * [`ScheduleStream`] — the cheap, inherently sequential half: daily
//!   Poisson broadcast counts and weighted creator picks, drawn from the
//!   `"broadcasts"` stream in `(day, seq)` order;
//! * [`RecordSampler`] — the expensive half: everything else about a
//!   broadcast (start, duration, audience, interactions, per-view viewer
//!   picks), drawn from a *per-record* stream
//!   `pool.fork_indexed("record", id)`, so a record is a pure function of
//!   `(seed, id, day, broadcaster, followers)` — independent of the
//!   order slots are sampled in.
//!
//! A private ground-truth ledger inside [`BroadcastStream`] counts the
//! per-user and per-day truth of every record the stream yields.

use std::borrow::Cow;

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
use crate::types::{BroadcastRecord, DayStats, WorkloadSummary};

/// Pareto exponent of broadcast-creation propensity (Fig 6 "create" lines:
/// a small cadre of users produces most broadcasts).
const CREATOR_ALPHA: f64 = 1.30;

/// Mobile views a `GroundTruth` buffers as needles before it resolves
/// them in one [`CumulativeTable::resolve`] pass: 512 KiB of needles
/// plus as much scatter buffer. On `usage_replay` (300k users) 2^16
/// adds about 1 MB of peak RSS; a 2^12 batch lost to resolving each view
/// at once, and a 2^18 one cost +4.4 MB.
const VIEW_BATCH: usize = 1 << 16;

/// Yields every [`BroadcastRecord`] of a scenario in deterministic
/// `(day, seq)` order without ever materializing them. The stream owns
/// its follow graph.
pub fn generate_streaming(config: &ScenarioConfig) -> BroadcastStream<'static> {
    config.validate().expect("invalid ScenarioConfig");
    let pool = RngPool::new(config.seed);
    let graph = default_graph(config, &pool);
    BroadcastStream::new(config, Cow::Owned(graph))
}

/// Like [`generate_streaming`] but borrowing a pre-built follow graph
/// (the Table 2 / Fig 7 experiments reuse one graph across analyses).
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
    BroadcastStream::new(config, Cow::Borrowed(graph))
}

/// One slot in the broadcast schedule: the cheap, sequential half of a
/// broadcast record — *who* broadcasts, *when* (which day), under *which*
/// global id. [`RecordSampler::sample`] expands a slot into a full
/// [`BroadcastRecord`] from the slot's own per-record RNG stream, so a
/// slot expands the same whatever was sampled before it.
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
/// and emits a few dozen bytes per record; [`RecordSampler`] does the
/// heavy per-record sampling.
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

/// The per-record half of the generator: expands a
/// [`ScheduledBroadcast`] into a full [`BroadcastRecord`].
///
/// Every draw (start time, duration, audience, interactions, per-view
/// viewer picks) comes from the slot's *own* forked stream,
/// `pool.fork_indexed("record", slot.id)`, making the record a pure
/// function of `(seed, id, day, broadcaster, followers)`: slots sampled
/// in any order produce exactly the bytes the stream produces.
///
/// The sampler is immutable (`sample` takes `&self`); it holds
/// `O(users)` state (the viewer-propensity table).
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
        self.sample_with(slot, followers, |rng| {
            on_mobile_view(self.viewers.pick(rng));
        })
    }

    /// The one sampling path: `per_view` runs once per mobile view and
    /// makes that view's pick from the record's stream — at once
    /// ([`sample`](Self::sample)) or as a needle resolved later
    /// (`GroundTruth::sample`). A pick is the record's last use of its
    /// stream, so either way every other draw is the same.
    fn sample_with(
        &self,
        slot: ScheduledBroadcast,
        followers: u64,
        mut per_view: impl FnMut(&mut SmallRng),
    ) -> BroadcastRecord {
        let mut rng = self.pool.fork_indexed("record", slot.id);
        let start = arrivals::sample_start_time(&mut rng, slot.day);
        let dur = sample_duration(&mut rng, &self.config);
        let audience = sample_audience(&mut rng, &self.config, followers);
        let inter = sample_interactions(&mut rng, &self.config, audience.total, dur.as_secs_f64());
        for _ in 0..audience.mobile {
            per_view(&mut rng);
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

/// The ground-truth ledger: per-user view/create tallies, the days
/// closed so far, and the open day's broadcast count and distinct-user
/// bitsets — `O(users + days)`, however many records it counts.
///
/// Each [`BroadcastStream`] counts in its own.
///
/// Mobile views are counted late: `sample` only draws each view's
/// needle into a fixed buffer of `VIEW_BATCH` (2^16), and a full buffer
/// is resolved in needle order into the tallies and the open day's
/// viewer bitset. Whoever closes a day must `flush` the ledger first;
/// `close_day` and `into_summary` panic on a ledger they would
/// otherwise miscount.
#[derive(Clone, Debug)]
struct GroundTruth {
    user_views: Vec<u32>,
    user_creates: Vec<u32>,
    daily: Vec<DayStats>,
    day_broadcasts: u64,
    day_viewers: FixedBitset,
    day_broadcasters: FixedBitset,
    /// Needles of the open day's views not yet in `user_views` and
    /// `day_viewers`; never longer than `scatter`.
    pending: Vec<f64>,
    /// The resolve pass's partition buffer; its length is the batch.
    scatter: Vec<f64>,
}

impl GroundTruth {
    /// An empty ledger for a scenario's population and study length.
    fn new(config: &ScenarioConfig) -> GroundTruth {
        GroundTruth::with_batch(config, VIEW_BATCH)
    }

    /// An empty ledger that resolves its views every `batch` needles.
    fn with_batch(config: &ScenarioConfig, batch: usize) -> GroundTruth {
        GroundTruth {
            user_views: vec![0; config.users],
            user_creates: vec![0; config.users],
            daily: Vec::with_capacity(config.days as usize),
            day_broadcasts: 0,
            day_viewers: FixedBitset::new(config.users),
            day_broadcasters: FixedBitset::new(config.users),
            pending: Vec::with_capacity(batch),
            scatter: vec![0.0; batch],
        }
    }

    /// Samples `slot` through `sampler`, counting it into the open day
    /// and buffering a needle per mobile view it attributes. A full
    /// buffer is resolved on the spot, mid-record if need be, so the
    /// buffer never grows past its batch.
    fn sample(
        &mut self,
        sampler: &RecordSampler,
        slot: ScheduledBroadcast,
        followers: u64,
    ) -> BroadcastRecord {
        self.day_broadcasts += 1;
        self.user_creates[slot.broadcaster as usize] += 1;
        self.day_broadcasters.insert(slot.broadcaster);
        let viewers = &sampler.viewers;
        let GroundTruth {
            user_views,
            day_viewers,
            pending,
            scatter,
            ..
        } = self;
        sampler.sample_with(slot, followers, |rng| {
            pending.push(viewers.draw(rng));
            if pending.len() == scatter.len() {
                resolve_views(viewers, pending, scatter, user_views, day_viewers);
            }
        })
    }

    /// Resolves every buffered view into the tallies and the open day,
    /// through the table of `sampler`, the sampler that drew them.
    fn flush(&mut self, sampler: &RecordSampler) {
        resolve_views(
            &sampler.viewers,
            &mut self.pending,
            &mut self.scatter,
            &mut self.user_views,
            &mut self.day_viewers,
        );
    }

    /// Panics when views are still buffered: `what` would miscount them.
    fn assert_flushed(&self, what: &str) {
        assert!(
            self.pending.is_empty(),
            "GroundTruth::{what} with {} unresolved mobile views: flush the ledger first",
            self.pending.len()
        );
    }

    /// Days closed so far; the open day's index.
    fn days_closed(&self) -> u32 {
        self.daily.len() as u32
    }

    /// Closes the open day into its [`DayStats`] and opens the next,
    /// keeping the bitsets' allocations.
    ///
    /// # Panics
    /// Panics when the ledger holds unresolved views.
    fn close_day(&mut self) {
        self.assert_flushed("close_day");
        self.daily.push(DayStats {
            day: self.days_closed(),
            broadcasts: self.day_broadcasts,
            active_viewers: self.day_viewers.len() as u64,
            active_broadcasters: self.day_broadcasters.len() as u64,
        });
        self.day_broadcasts = 0;
        self.day_viewers.clear();
        self.day_broadcasters.clear();
    }

    /// The closed days and tallies, as the summary of `config`.
    ///
    /// # Panics
    /// Panics when the ledger holds unresolved views.
    fn into_summary(self, config: ScenarioConfig) -> WorkloadSummary {
        self.assert_flushed("into_summary");
        WorkloadSummary {
            config,
            daily: self.daily,
            user_views: self.user_views,
            user_creates: self.user_creates,
        }
    }

    /// Bytes of heap + inline storage (replay memory accounting),
    /// including the view buffer and its scatter buffer.
    fn tracked_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.user_views.capacity() + self.user_creates.capacity())
                * std::mem::size_of::<u32>()
            + self.daily.capacity() * std::mem::size_of::<DayStats>()
            + self.day_viewers.tracked_bytes()
            + self.day_broadcasters.tracked_bytes()
            + (self.pending.capacity() + self.scatter.capacity()) * std::mem::size_of::<f64>()
    }
}

/// Resolves the buffered needles through `viewers`, counting each view
/// in `user_views` and `day_viewers`, and empties the buffer.
fn resolve_views(
    viewers: &CumulativeTable,
    pending: &mut Vec<f64>,
    scatter: &mut [f64],
    user_views: &mut [u32],
    day_viewers: &mut FixedBitset,
) {
    if pending.is_empty() {
        return;
    }
    viewers.resolve(pending, scatter, |viewer| {
        user_views[viewer as usize] += 1;
        day_viewers.insert(viewer);
    });
    pending.clear();
}

/// An iterator of [`BroadcastRecord`]s in `(day, seq)` order.
///
/// Composes a [`ScheduleStream`], a [`RecordSampler`] and a ground-truth
/// ledger — `O(users + days)` state total. Drive it to exhaustion, then
/// call [`BroadcastStream::into_summary`] for the daily/user aggregates
/// (a [`WorkloadSummary`]).
pub struct BroadcastStream<'a> {
    schedule: ScheduleStream,
    sampler: RecordSampler,
    graph: Cow<'a, DiGraph>,
    truth: GroundTruth,
}

impl<'a> BroadcastStream<'a> {
    fn new(config: &ScenarioConfig, graph: Cow<'a, DiGraph>) -> BroadcastStream<'a> {
        BroadcastStream {
            schedule: ScheduleStream::new(config),
            sampler: RecordSampler::new(config),
            graph,
            truth: GroundTruth::new(config),
        }
    }

    /// The scenario being generated.
    pub fn config(&self) -> &ScenarioConfig {
        self.schedule.config()
    }

    /// Consumes the stream, draining any unread records, and returns the
    /// accumulated aggregates.
    pub fn into_summary(mut self) -> WorkloadSummary {
        for _ in &mut self {}
        let config = self.schedule.config().clone();
        self.truth.into_summary(config)
    }

    /// Bytes of heap + inline storage held by the stream's schedule,
    /// sampler tables and ledger — `O(users + days)`, independent of how
    /// many records have been yielded. Each part counts its own inline
    /// bytes; the follow graph (an input, shared across paths) is
    /// accounted separately by the bench, handle included.
    pub fn tracked_bytes(&self) -> usize {
        self.schedule.tracked_bytes() + self.sampler.tracked_bytes() + self.truth.tracked_bytes()
    }

    /// Closes every open day before `day`, resolving the views buffered
    /// in the ledger first.
    fn close_days_before(&mut self, day: u32) {
        if self.truth.days_closed() < day {
            self.truth.flush(&self.sampler);
            while self.truth.days_closed() < day {
                self.truth.close_day();
            }
        }
    }
}

impl Iterator for BroadcastStream<'_> {
    type Item = BroadcastRecord;

    fn next(&mut self) -> Option<BroadcastRecord> {
        let days = self.schedule.config().days;
        let Some(slot) = self.schedule.next() else {
            // Close every remaining day (including trailing zero-broadcast
            // days) exactly once; further calls fall through harmlessly.
            self.close_days_before(days);
            return None;
        };
        self.close_days_before(slot.day);
        let followers = self.graph.in_degree(slot.broadcaster) as u64;
        Some(self.truth.sample(&self.sampler, slot, followers))
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
    use crate::bitset::FixedBitset;

    fn small_periscope() -> ScenarioConfig {
        ScenarioConfig {
            days: 21,
            users: 3_000,
            base_daily_broadcasts: 60.0,
            ..ScenarioConfig::periscope_study()
        }
    }

    /// Every record of a scenario, plus the ground truth the stream
    /// counted while yielding them.
    fn collect(config: &ScenarioConfig) -> (Vec<BroadcastRecord>, WorkloadSummary) {
        let mut stream = generate_streaming(config);
        let records = (&mut stream).collect();
        (records, stream.into_summary())
    }

    #[test]
    fn generation_is_deterministic() {
        let config = small_periscope();
        let (a, a_truth) = collect(&config);
        let (b, b_truth) = collect(&config);
        assert_eq!(a, b);
        assert_eq!(a_truth.user_views, b_truth.user_views);
        let mut c2 = config.clone();
        c2.seed ^= 1;
        let (c, _) = collect(&c2);
        let views = |records: &[BroadcastRecord]| records.iter().map(|r| r.viewers).sum::<u64>();
        assert_ne!(views(&a), views(&c));
    }

    #[test]
    fn owned_graph_stream_matches_borrowed_graph_stream() {
        // The benches build the follow graph themselves and hand it in;
        // that must generate exactly what the stream-owned graph does:
        // same records in the same order, same aggregates, for both apps.
        for config in [small_periscope(), {
            let mut c = ScenarioConfig::meerkat_study();
            c.days = 12;
            c.users = 900;
            c
        }] {
            let (owned, owned_truth) = collect(&config);
            let graph =
                DiGraph::generate(&default_graph_spec(&config), default_graph_seed(&config));
            let mut stream = generate_streaming_with_graph(&config, &graph);
            let borrowed: Vec<BroadcastRecord> = (&mut stream).collect();
            assert_eq!(owned, borrowed);
            let truth = stream.into_summary();
            assert_eq!(truth.user_views, owned_truth.user_views);
            assert_eq!(truth.user_creates, owned_truth.user_creates);
            assert_eq!(truth.daily, owned_truth.daily);
        }
    }

    #[test]
    fn records_are_pure_functions_of_their_slot() {
        // Expanding a slot must not depend on sampling order,
        // interleaving, or which other slots were expanded. Sample the
        // schedule forward and backward and get the same bytes.
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
        let (records, truth) = collect(&config);
        let summary = generate_streaming(&config).into_summary();
        assert_eq!(summary.total_broadcasts(), records.len() as u64);
        assert_eq!(summary.user_views, truth.user_views);
        assert_eq!(summary.user_creates, truth.user_creates);
        assert_eq!(summary.daily, truth.daily);
    }

    #[test]
    fn record_invariants_hold() {
        let config = small_periscope();
        let (records, _) = collect(&config);
        assert!(records.len() > 500);
        let mut last_id = 0;
        for b in &records {
            assert!(b.id > last_id, "ids must be strictly increasing");
            last_id = b.id;
            assert!(b.mobile_viewers <= b.viewers);
            assert!(b.hls_viewers <= b.viewers);
            assert!((b.broadcaster as usize) < config.users);
            assert!(b.day < config.days);
            assert_eq!(
                b.day as u64,
                b.start.as_micros() / (arrivals::DAY_SECS * 1_000_000)
            );
        }
    }

    #[test]
    fn daily_stats_are_consistent_with_records() {
        let (records, truth) = collect(&small_periscope());
        assert_eq!(truth.daily.len(), small_periscope().days as usize);
        for (day, stats) in truth.daily.iter().enumerate() {
            let scanned = records.iter().filter(|b| b.day == day as u32).count() as u64;
            assert_eq!(stats.day, day as u32);
            assert_eq!(stats.broadcasts, scanned, "day {day}");
            assert!(stats.active_broadcasters <= stats.broadcasts.max(1));
        }
    }

    #[test]
    fn viewer_to_broadcaster_ratio_is_near_ten() {
        // Fig 2's headline: daily active viewers ≈ 10× daily active
        // broadcasters on Periscope.
        let (_, truth) = collect(&small_periscope());
        let (mut viewers, mut broadcasters) = (0.0, 0.0);
        for d in &truth.daily {
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
        let (records, truth) = collect(&small_periscope());
        let mobile_views: u64 = records.iter().map(|b| b.mobile_viewers).sum();
        assert_eq!(truth.mobile_views(), mobile_views);
        assert_eq!(truth.total_broadcasts(), records.len() as u64);
    }

    #[test]
    fn viewing_activity_is_skewed_like_fig6() {
        let (_, truth) = collect(&small_periscope());
        let mut views: Vec<u32> = truth
            .user_views
            .iter()
            .copied()
            .filter(|&v| v > 0)
            .collect();
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
        let (records, _) = collect(&config);
        let zero = records.iter().filter(|b| b.viewers == 0).count() as f64 / records.len() as f64;
        assert!((0.5..0.7).contains(&zero), "zero fraction {zero}");
    }

    #[test]
    fn followers_correlate_with_viewers() {
        // Fig 7's qualitative claim, tested via rank buckets: broadcasts
        // by the most-followed decile must out-draw the least-followed.
        let (records, _) = collect(&small_periscope());
        let mut with_followers: Vec<(u64, u64)> =
            records.iter().map(|b| (b.followers, b.viewers)).collect();
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
    fn deferred_views_match_the_per_view_ledger() {
        // A 7-needle batch makes the buffer fill mid-record and carry
        // views across day barriers; the tallies and `DayStats` must still
        // equal a ledger counted view by view from `RecordSampler::sample`.
        const BATCH: u64 = 7;
        let config = small_periscope();
        let graph = default_graph(&config, &RngPool::new(config.seed));
        let sampler = RecordSampler::new(&config);
        let mut truth = GroundTruth::with_batch(&config, BATCH as usize);

        let mut user_views = vec![0u32; config.users];
        let mut daily: Vec<DayStats> = Vec::new();
        let (mut viewers, mut broadcasters) = (
            FixedBitset::new(config.users),
            FixedBitset::new(config.users),
        );

        let (mut mid_record, mut across_barrier) = (0, 0);
        let mut slots = ScheduleStream::new(&config).peekable();
        for day in 0..config.days {
            let mut broadcasts = 0;
            while let Some(slot) = slots.next_if(|s| s.day == day) {
                let followers = graph.in_degree(slot.broadcaster) as u64;
                let before = truth.pending.len() as u64;
                let record = truth.sample(&sampler, slot, followers);
                // The buffer filled before the record's last view; it was
                // resolved there and never outgrew its batch.
                mid_record += usize::from(before + record.mobile_viewers > BATCH);
                assert!((truth.pending.len() as u64) < BATCH);
                let expect = sampler.sample(slot, followers, |viewer| {
                    user_views[viewer as usize] += 1;
                    viewers.insert(viewer);
                });
                assert_eq!(record, expect);
                broadcasts += 1;
                broadcasters.insert(slot.broadcaster);
            }
            across_barrier += usize::from(!truth.pending.is_empty());
            truth.flush(&sampler);
            truth.close_day();
            daily.push(DayStats {
                day,
                broadcasts,
                active_viewers: viewers.len() as u64,
                active_broadcasters: broadcasters.len() as u64,
            });
            viewers.clear();
            broadcasters.clear();
        }
        assert!(mid_record > 100, "only {mid_record} mid-record flushes");
        assert!(
            across_barrier > 5,
            "only {across_barrier} days ended unflushed"
        );

        let summary = truth.into_summary(config.clone());
        assert_eq!(summary.user_views, user_views);
        assert_eq!(summary.daily, daily);
        // The stream, at the full batch, counts the same truth.
        let streamed = generate_streaming(&config).into_summary();
        assert_eq!(streamed.user_views, user_views);
        assert_eq!(streamed.daily, daily);
    }

    #[test]
    fn a_missed_flush_panics_instead_of_miscounting() {
        let config = small_periscope();
        let sampler = RecordSampler::new(&config);
        // A ledger holding the unresolved views of a few records.
        let unflushed = || {
            let mut truth = GroundTruth::new(&config);
            for slot in ScheduleStream::new(&config).take(20) {
                truth.sample(&sampler, slot, 500);
            }
            assert!(!truth.pending.is_empty());
            truth
        };
        let panics = |what: &str, f: &mut dyn FnMut()| {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
                .expect_err("a missed flush must panic");
            let message = err
                .downcast_ref::<String>()
                .expect("a formatted panic message");
            assert!(
                message.contains(&format!("GroundTruth::{what} with"))
                    && message.contains("unresolved mobile views"),
                "{message}"
            );
        };
        panics("close_day", &mut || unflushed().close_day());
        panics("into_summary", &mut || {
            unflushed().into_summary(config.clone());
        });
        // Flushed, each of them goes through.
        let mut flushed = unflushed();
        flushed.flush(&sampler);
        flushed.close_day();
        flushed.into_summary(config.clone());
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
        let result = std::panic::catch_unwind(|| {
            generate_streaming_with_graph(&config, &wrong).count();
        });
        assert!(result.is_err());
    }
}
