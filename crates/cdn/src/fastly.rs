//! The Fastly-style edge POP: chunklist cache, origin pull on first poll,
//! and chunk serving.
//!
//! The timing diagram of Fig 10(b) is implemented literally: a fresh chunk
//! on Wowza (⑦) is *not* proactively copied — the first viewer poll after
//! it becomes ready (⑨) triggers the POP's origin fetch (⑩), the chunk
//! lands in the edge cache after the transfer delay (⑪), and only polls
//! arriving after that instant see it in the chunklist (⑭). The
//! Wowza2Fastly delay the paper measures is exactly `⑪ − ⑦`.

use std::collections::BTreeMap;
use std::sync::Arc;

use livescope_net::datacenters::DatacenterId;
use livescope_proto::hls::{Chunk, ChunkList};
use livescope_sim::{SimDuration, SimTime};
use livescope_telemetry::{CounterId, HistogramId, Span, Telemetry, TraceEvent};

use crate::chunker::ReadyChunk;
use crate::ids::BroadcastId;

/// Sliding-window length of the live chunklist (entries advertised).
pub const LIVE_WINDOW: usize = 6;

/// Edge-side work counters (the HLS half of Fig 14).
#[derive(Clone, Copy, Debug, Default)]
pub struct EdgeWork {
    /// Chunklist polls answered.
    pub polls_served: u64,
    /// Origin fetches initiated.
    pub origin_fetches: u64,
    /// Chunklists built (every other poll was answered from the cached
    /// copy). Like `origin_fetches`, this follows the chunks, never the
    /// audience.
    pub playlist_rebuilds: u64,
    /// Chunks served to viewers.
    pub chunks_served: u64,
    /// Chunk bytes served to viewers.
    pub bytes_served: u64,
}

/// The set of origin chunks one poll decides to pull, batched into a
/// single gateway-routed transfer. The cluster samples *one* delay for
/// the whole plan, so the §5.3 coordination overhead is paid exactly once
/// per poll no matter how many chunks became ready since the last one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FetchPlan {
    /// Sequence numbers pulled, ascending.
    pub seqs: Vec<u64>,
    /// Total payload bytes across the batch (≥ 1 so transfer-time models
    /// never divide by zero).
    pub total_bytes: usize,
}

/// One chunk as a POP holds it.
pub struct CachedChunk {
    /// When the fetch that pulled it lands here — the `⑪` timestamp of the
    /// Wowza2Fastly measurement. Polls and downloads before this instant
    /// do not see the chunk.
    pub available_at: SimTime,
    /// The origin's wire encoding, shared by refcount: the same `Bytes`
    /// allocation travels Wowza → every POP → every viewer download, so a
    /// serve is a pointer bump — the cheapness that makes HLS scale
    /// (Fig 14).
    pub encoded: bytes::Bytes,
    /// The origin's decoded chunk, shared the same way.
    pub chunk: Arc<Chunk>,
}

/// The chunklist as last built, with the poll times it is exact for. The
/// paper's edge does the same (§5.2): Fastly caches the chunklist and only
/// a newly replicated chunk expires it.
struct CachedPlaylist {
    list: Arc<ChunkList>,
    /// Newest `available_at` at or before the building poll.
    valid_from: SimTime,
    /// Earliest `available_at` after the building poll.
    valid_until: SimTime,
}

#[derive(Default)]
struct EdgeCache {
    /// Exactly the fetched prefix of the origin store: `chunks[i]` is
    /// origin seq `i`, because chunkers number from 0 and origins never
    /// drop a chunk. The fetch watermark is therefore `chunks.len()`, and a
    /// download is one index.
    chunks: Vec<CachedChunk>,
    /// Rebuilt by the first poll outside its validity window and by every
    /// poll that starts a fetch; gone with the cache on eviction.
    playlist: Option<CachedPlaylist>,
}

impl EdgeCache {
    /// Builds the chunklist a poll at `now` is served: the newest
    /// [`LIVE_WINDOW`] chunks already landed here.
    ///
    /// The walk runs from the newest seq and stops once the window is
    /// full, visiting ~`LIVE_WINDOW` entries plus any still-in-flight
    /// stragglers instead of the whole cache (which grows with stream
    /// length). Whether each walked entry has landed is the same for every
    /// `t` in `[valid_from, valid_until)` as it is at `now`, and entries
    /// the walk never reached are older than a full window of landed
    /// ones, so any poll in that span — before or after `now` — would
    /// build this very list.
    fn build_playlist(&self, now: SimTime) -> CachedPlaylist {
        let mut servable: Vec<&Chunk> = Vec::with_capacity(LIVE_WINDOW);
        let (mut valid_from, mut valid_until) = (SimTime::ZERO, SimTime::MAX);
        for c in self.chunks.iter().rev() {
            if c.available_at <= now {
                valid_from = valid_from.max(c.available_at);
                servable.push(c.chunk.as_ref());
                if servable.len() == LIVE_WINDOW {
                    break;
                }
            } else {
                valid_until = valid_until.min(c.available_at);
            }
        }
        CachedPlaylist {
            list: Arc::new(ChunkList::from_chunks(servable, LIVE_WINDOW)),
            valid_from,
            valid_until,
        }
    }

    /// The cached copy of origin seq `seq`, landed or in flight.
    fn chunk(&self, seq: u64) -> Option<&CachedChunk> {
        self.chunks.get(usize::try_from(seq).ok()?)
    }
}

/// One edge POP.
pub struct FastlyPop {
    dc: DatacenterId,
    caches: BTreeMap<BroadcastId, EdgeCache>,
    /// Cumulative work counters.
    pub work: EdgeWork,
    telemetry: Telemetry,
    c_polls: CounterId,
    c_poll_hits: CounterId,
    c_poll_misses: CounterId,
    c_origin_fetches: CounterId,
    c_playlist_rebuilds: CounterId,
    c_chunks_served: CounterId,
    h_fetch_delay_us: HistogramId,
}

/// Result of a chunklist poll.
#[derive(Clone, Debug)]
pub struct PollResponse {
    /// The chunklist as served (only chunks already cached locally): the
    /// POP's cached copy, shared by refcount with every other poll it
    /// answers until a chunk lands.
    pub chunklist: Arc<ChunkList>,
    /// Number of origin fetches this poll triggered (0 on a pure cache
    /// hit; the paper's crawler uses high-frequency polls precisely to be
    /// the poll that triggers the fetch).
    pub fetches_started: usize,
}

impl FastlyPop {
    /// A POP at `dc`.
    pub fn new(dc: DatacenterId) -> Self {
        FastlyPop {
            dc,
            caches: BTreeMap::new(),
            work: EdgeWork::default(),
            telemetry: Telemetry::disabled(),
            c_polls: CounterId::INERT,
            c_poll_hits: CounterId::INERT,
            c_poll_misses: CounterId::INERT,
            c_origin_fetches: CounterId::INERT,
            c_playlist_rebuilds: CounterId::INERT,
            c_chunks_served: CounterId::INERT,
            h_fetch_delay_us: HistogramId::INERT,
        }
    }

    /// Attaches telemetry: edge counters, an origin-fetch delay histogram,
    /// and `PollHit`/`PollMiss`/`OriginPull` trace events.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.c_polls = telemetry.counter("fastly.polls_served");
        self.c_poll_hits = telemetry.counter("fastly.poll_hits");
        self.c_poll_misses = telemetry.counter("fastly.poll_misses");
        self.c_origin_fetches = telemetry.counter("fastly.origin_fetches");
        self.c_playlist_rebuilds = telemetry.counter("fastly.playlist_rebuilds");
        self.c_chunks_served = telemetry.counter("fastly.chunks_served");
        self.h_fetch_delay_us = telemetry.histogram("fastly.fetch_delay_us");
        self.telemetry = telemetry.clone();
    }

    /// The POP's datacenter.
    pub fn datacenter(&self) -> DatacenterId {
        self.dc
    }

    /// Serves a chunklist poll at `now`.
    ///
    /// `origin` is the broadcast's chunk store on its Wowza server: seq
    /// `i` at index `i` and `ready_at`-ascending, as a [`Chunker`] emits
    /// them (both asserted as chunks are fetched). All origin chunks that
    /// are ready but not yet requested are batched into one [`FetchPlan`]
    /// initiated by *this* poll; `fetch_delay` samples the origin→edge
    /// transfer time for the whole batch (the cluster supplies the
    /// co-located-gateway routing), so every chunk in the plan lands at
    /// the same instant. `fetch_delay` is not called on fetch-free polls.
    ///
    /// [`Chunker`]: crate::Chunker
    pub fn poll(
        &mut self,
        now: SimTime,
        broadcast: BroadcastId,
        origin: &[ReadyChunk],
        fetch_delay: impl FnOnce(&FetchPlan) -> SimDuration,
    ) -> PollResponse {
        self.work.polls_served += 1;
        self.telemetry.add(self.c_polls, 1);
        let cache = self.caches.entry(broadcast).or_default();
        // The cache holds `origin[..chunks.len()]`; the ready part of the
        // rest is a prefix of it, because the origin is `ready_at`-ascending.
        // Origin-side future chunks are invisible: the paper's
        // chunklist-expiry notification tells the edge *that* something is
        // new, never content ahead of time.
        let unfetched = origin.get(cache.chunks.len()..).unwrap_or_default();
        let due = &unfetched[..unfetched.iter().take_while(|r| r.ready_at <= now).count()];
        let fetches_started = due.len();
        if fetches_started > 0 {
            let plan = FetchPlan {
                seqs: due.iter().map(|r| r.chunk.seq).collect(),
                total_bytes: due
                    .iter()
                    .map(|r| r.chunk.payload_bytes())
                    .sum::<usize>()
                    .max(1),
            };
            let delay = fetch_delay(&plan);
            let available_at = now + delay;
            let batch = fetches_started as u32;
            for ready in due {
                let index = cache.chunks.len();
                assert_eq!(
                    ready.chunk.seq, index as u64,
                    "origin chunk at index {index} has seq {}: the edge store is indexed by seq",
                    ready.chunk.seq
                );
                assert!(
                    index == 0 || origin[index - 1].ready_at <= ready.ready_at,
                    "origin chunk {index} is ready before chunk {}: the origin must be \
                     ready_at-ascending",
                    index - 1
                );
                cache.chunks.push(CachedChunk {
                    available_at,
                    encoded: ready.encoded.clone(),
                    chunk: Arc::clone(&ready.chunk),
                });
                self.telemetry.emit(
                    now.as_micros(),
                    TraceEvent::OriginPull {
                        broadcast: broadcast.0,
                        pop: self.dc.0,
                        seq: ready.chunk.seq,
                        origin_ready_us: ready.ready_at.as_micros(),
                        available_at_us: available_at.as_micros(),
                        batch,
                    },
                );
                let span = Span::origin_fetch(broadcast.0, ready.chunk.seq, self.dc.0);
                self.telemetry.emit(now.as_micros(), span.open(self.dc.0));
                self.telemetry.emit(available_at.as_micros(), span.close());
            }
            self.work.origin_fetches += fetches_started as u64;
            self.telemetry
                .add(self.c_origin_fetches, fetches_started as u64);
            self.telemetry
                .record(self.h_fetch_delay_us, delay.as_micros());
        }
        let chunklist = match &cache.playlist {
            Some(cached)
                if fetches_started == 0 && cached.valid_from <= now && now < cached.valid_until =>
            {
                Arc::clone(&cached.list)
            }
            _ => {
                self.work.playlist_rebuilds += 1;
                self.telemetry.add(self.c_playlist_rebuilds, 1);
                let built = cache.build_playlist(now);
                Arc::clone(&cache.playlist.insert(built).list)
            }
        };
        if chunklist.entries.is_empty() {
            self.telemetry.add(self.c_poll_misses, 1);
            self.telemetry.emit(
                now.as_micros(),
                TraceEvent::PollMiss {
                    broadcast: broadcast.0,
                    pop: self.dc.0,
                },
            );
        } else {
            self.telemetry.add(self.c_poll_hits, 1);
            self.telemetry.emit(
                now.as_micros(),
                TraceEvent::PollHit {
                    broadcast: broadcast.0,
                    pop: self.dc.0,
                    entries: chunklist.entries.len() as u32,
                },
            );
        }
        PollResponse {
            chunklist,
            fetches_started,
        }
    }

    /// Serves one chunk download (None if not yet available here) in one
    /// cache lookup. Nothing is copied: the caller clones whichever shared
    /// handle it wants — `encoded`, the allocation the origin sealed, or
    /// `chunk`, the origin's decoded view — or just reads `available_at`.
    pub fn serve_chunk(
        &mut self,
        now: SimTime,
        broadcast: BroadcastId,
        seq: u64,
    ) -> Option<&CachedChunk> {
        let cached = self.caches.get(&broadcast)?.chunk(seq)?;
        if cached.available_at > now {
            return None;
        }
        self.work.chunks_served += 1;
        self.work.bytes_served += cached.encoded.len() as u64;
        self.telemetry.add(self.c_chunks_served, 1);
        Some(cached)
    }

    /// When `seq` became (or becomes) available at this POP — the `⑪`
    /// timestamp of the Wowza2Fastly measurement. `None` if no fetch was
    /// ever triggered.
    pub fn availability(&self, broadcast: BroadcastId, seq: u64) -> Option<SimTime> {
        Some(self.caches.get(&broadcast)?.chunk(seq)?.available_at)
    }

    /// Drops a broadcast's cache (broadcast ended, TTL expiry).
    pub fn evict(&mut self, broadcast: BroadcastId) {
        self.caches.remove(&broadcast);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use livescope_proto::rtmp::VideoFrame;
    use livescope_sim::SimDuration;

    const B: BroadcastId = BroadcastId(5);

    fn ready_chunk(seq: u64, ready_s: u64) -> ReadyChunk {
        let chunk = Chunk {
            seq,
            start_ts_us: seq * 3_000_000,
            duration_us: 3_000_000,
            frames: vec![VideoFrame::new(
                seq * 75,
                seq * 3_000_000,
                true,
                Bytes::from(vec![1u8; 100]),
            )],
        };
        let encoded = chunk.encode();
        ReadyChunk {
            chunk: Arc::new(chunk),
            encoded,
            ready_at: SimTime::from_secs(ready_s),
        }
    }

    fn fixed_delay(ms: u64) -> impl Fn(&FetchPlan) -> SimDuration + Copy {
        move |_| SimDuration::from_millis(ms)
    }

    #[test]
    fn first_poll_triggers_fetch_but_serves_nothing() {
        let mut pop = FastlyPop::new(DatacenterId(8));
        let origin = vec![ready_chunk(0, 3)];
        let resp = pop.poll(SimTime::from_secs(4), B, &origin, fixed_delay(200));
        assert_eq!(resp.fetches_started, 1);
        assert_eq!(resp.chunklist.entries.len(), 0, "chunk still in flight");
        // The availability timestamp is poll time + transfer.
        assert_eq!(
            pop.availability(B, 0),
            Some(SimTime::from_secs(4) + SimDuration::from_millis(200))
        );
    }

    #[test]
    fn later_poll_sees_the_fetched_chunk_once() {
        let mut pop = FastlyPop::new(DatacenterId(8));
        let origin = vec![ready_chunk(0, 3)];
        let d = fixed_delay(200);
        pop.poll(SimTime::from_secs(4), B, &origin, d);
        let resp = pop.poll(SimTime::from_secs(5), B, &origin, d);
        assert_eq!(resp.fetches_started, 0, "no duplicate fetch");
        assert_eq!(resp.chunklist.entries.len(), 1);
        assert_eq!(resp.chunklist.latest_seq(), Some(0));
    }

    #[test]
    fn future_origin_chunks_are_invisible() {
        let mut pop = FastlyPop::new(DatacenterId(8));
        let origin = vec![ready_chunk(0, 3), ready_chunk(1, 6)];
        let resp = pop.poll(SimTime::from_secs(4), B, &origin, fixed_delay(10));
        assert_eq!(resp.fetches_started, 1, "only the ready chunk fetches");
        assert!(pop.availability(B, 1).is_none());
    }

    #[test]
    fn chunk_download_respects_availability() {
        let mut pop = FastlyPop::new(DatacenterId(8));
        let origin = vec![ready_chunk(0, 3)];
        pop.poll(SimTime::from_secs(4), B, &origin, fixed_delay(500));
        assert!(pop.serve_chunk(SimTime::from_millis(4_200), B, 0).is_none());
        let served = pop.serve_chunk(SimTime::from_millis(4_500), B, 0).unwrap();
        assert_eq!(served.chunk.seq, 0);
        assert_eq!(served.available_at, SimTime::from_millis(4_500));
        assert_eq!(pop.work.chunks_served, 1);
        assert!(pop.work.bytes_served >= 100);
        assert!(pop.serve_chunk(SimTime::from_secs(5), B, 99).is_none());
    }

    #[test]
    fn chunklist_window_slides() {
        let mut pop = FastlyPop::new(DatacenterId(8));
        let origin: Vec<ReadyChunk> = (0..10).map(|s| ready_chunk(s, 3 * (s + 1))).collect();
        let d = fixed_delay(1);
        let resp = pop.poll(SimTime::from_secs(100), B, &origin, d);
        assert_eq!(resp.fetches_started, 10);
        let resp = pop.poll(SimTime::from_secs(101), B, &origin, d);
        assert_eq!(resp.chunklist.entries.len(), LIVE_WINDOW);
        assert_eq!(resp.chunklist.latest_seq(), Some(9));
        assert_eq!(resp.chunklist.media_sequence, 4);
    }

    #[test]
    fn caches_are_per_broadcast_and_evictable() {
        let mut pop = FastlyPop::new(DatacenterId(8));
        let origin = vec![ready_chunk(0, 1)];
        let d = fixed_delay(1);
        pop.poll(SimTime::from_secs(2), B, &origin, d);
        pop.poll(SimTime::from_secs(2), BroadcastId(99), &[], d);
        assert!(pop.availability(B, 0).is_some());
        assert!(pop.availability(BroadcastId(99), 0).is_none());
        pop.evict(B);
        assert!(pop.availability(B, 0).is_none());
    }

    #[test]
    fn poll_counter_tracks_every_request() {
        let mut pop = FastlyPop::new(DatacenterId(8));
        for i in 0..7 {
            pop.poll(SimTime::from_secs(i), B, &[], fixed_delay(1));
        }
        assert_eq!(pop.work.polls_served, 7);
        assert_eq!(pop.work.origin_fetches, 0);
    }

    #[test]
    fn cached_chunk_shares_the_origin_allocation() {
        // The zero-copy contract: the bytes a viewer downloads ARE the
        // bytes the origin encoded at chunk close — same allocation, no
        // copies anywhere on the poll → download path.
        let mut pop = FastlyPop::new(DatacenterId(8));
        let origin = vec![ready_chunk(0, 3)];
        pop.poll(SimTime::from_secs(4), B, &origin, fixed_delay(1));
        let served = pop.serve_chunk(SimTime::from_secs(5), B, 0).unwrap();
        assert_eq!(
            served.encoded.as_ref().as_ptr(),
            origin[0].encoded.as_ref().as_ptr(),
            "served bytes must alias the origin encoding"
        );
        assert!(
            Arc::ptr_eq(&served.chunk, &origin[0].chunk),
            "decoded view must alias the origin chunk"
        );
    }

    #[test]
    fn fetch_free_polls_inside_one_window_share_the_playlist() {
        let mut pop = FastlyPop::new(DatacenterId(8));
        let origin = vec![ready_chunk(0, 3), ready_chunk(1, 6)];
        let d = fixed_delay(200);
        pop.poll(SimTime::from_secs(4), B, &origin, d);
        let first = pop.poll(SimTime::from_secs(5), B, &origin, d);
        let second = pop.poll(SimTime::from_millis(5_900), B, &origin, d);
        assert!(
            Arc::ptr_eq(&first.chunklist, &second.chunklist),
            "a poll between two landings is a refcount bump"
        );
        assert_eq!(pop.work.playlist_rebuilds, 2, "fetch poll + first hit");
        // The poll that pulls chunk 1 rebuilds (same content, chunk 1 is
        // in flight), and so does the first poll after it lands.
        let fetching = pop.poll(SimTime::from_secs(7), B, &origin, d);
        assert_eq!(fetching.fetches_started, 1);
        assert_eq!(fetching.chunklist, first.chunklist);
        let landed = pop.poll(SimTime::from_millis(7_200), B, &origin, d);
        assert_eq!(landed.chunklist.latest_seq(), Some(1));
        assert_eq!(pop.work.playlist_rebuilds, 4);
        // Time running backwards leaves the window: rebuilt, still exact.
        let earlier = pop.poll(SimTime::from_secs(5), B, &origin, d);
        assert_eq!(earlier.chunklist, first.chunklist);
        assert_eq!(pop.work.playlist_rebuilds, 5);
    }

    proptest::proptest! {
        #[test]
        fn served_playlist_equals_the_brute_force_build(
            ops in proptest::collection::vec((0u8..12, 0u64..100, 0u64..12, 0u64..100), 1..120),
        ) {
            // Polls at arbitrary (non-monotone) times with arbitrary
            // per-plan delays, interleaved with evictions, on a half-second
            // grid so polls land exactly on window edges. The reference is
            // a map from every seq fetched since the last eviction to the
            // instant it lands: each poll must fetch exactly the ready
            // chunks it lacks, in one plan, and the list served, every
            // `availability` answer and every download (at an arbitrary
            // probe time) must agree with the map.
            let origin: Vec<ReadyChunk> = (0..14).map(|s| ready_chunk(s, 3 * (s + 1))).collect();
            let mut pop = FastlyPop::new(DatacenterId(8));
            let mut landing: BTreeMap<u64, SimTime> = BTreeMap::new();
            let (mut served, mut bytes) = (0u64, 0u64);
            for (kind, t, delay, probe) in ops {
                if kind == 0 {
                    pop.evict(B);
                    landing.clear();
                    continue;
                }
                let now = SimTime::from_millis(t * 500);
                let delay = SimDuration::from_millis(delay * 500);
                let due: Vec<&ReadyChunk> = origin
                    .iter()
                    .filter(|r| r.ready_at <= now && !landing.contains_key(&r.chunk.seq))
                    .collect();
                let mut plans = Vec::new();
                let resp = pop.poll(now, B, &origin, |plan: &FetchPlan| {
                    plans.push(plan.clone());
                    delay
                });
                let expected_plans: Vec<FetchPlan> = if due.is_empty() {
                    Vec::new()
                } else {
                    vec![FetchPlan {
                        seqs: due.iter().map(|r| r.chunk.seq).collect(),
                        total_bytes: due.iter().map(|r| r.chunk.payload_bytes()).sum::<usize>().max(1),
                    }]
                };
                proptest::prop_assert_eq!(plans, expected_plans);
                proptest::prop_assert_eq!(resp.fetches_started, due.len());
                for r in &due {
                    landing.insert(r.chunk.seq, now + delay);
                }
                let landed = origin
                    .iter()
                    .filter(|r| landing.get(&r.chunk.seq).is_some_and(|&at| at <= now))
                    .map(|r| r.chunk.as_ref());
                proptest::prop_assert_eq!(
                    &*resp.chunklist,
                    &ChunkList::from_chunks(landed, LIVE_WINDOW)
                );
                let probe = SimTime::from_millis(probe * 500);
                for seq in 0..origin.len() as u64 + 2 {
                    let lands = landing.get(&seq).copied();
                    proptest::prop_assert_eq!(pop.availability(B, seq), lands);
                    let got = pop
                        .serve_chunk(probe, B, seq)
                        .map(|c| (c.available_at, c.encoded.len()));
                    let expected = lands.filter(|&at| at <= probe).map(|at| {
                        let len = origin[seq as usize].encoded.len();
                        served += 1;
                        bytes += len as u64;
                        (at, len)
                    });
                    proptest::prop_assert_eq!(got, expected);
                }
                proptest::prop_assert_eq!(
                    (pop.work.chunks_served, pop.work.bytes_served),
                    (served, bytes)
                );
            }
            proptest::prop_assert!(pop.work.playlist_rebuilds <= pop.work.polls_served);
        }
    }

    #[test]
    #[should_panic(expected = "indexed by seq")]
    fn an_origin_whose_seq_is_not_its_index_panics() {
        let mut pop = FastlyPop::new(DatacenterId(8));
        let origin = vec![ready_chunk(0, 3), ready_chunk(2, 6)];
        pop.poll(SimTime::from_secs(10), B, &origin, fixed_delay(1));
    }

    #[test]
    #[should_panic(expected = "ready_at-ascending")]
    fn an_origin_out_of_ready_order_panics() {
        let mut pop = FastlyPop::new(DatacenterId(8));
        let origin = vec![ready_chunk(0, 6), ready_chunk(1, 3)];
        // At 4 s chunk 0 is not ready, so chunk 1 is not looked at yet.
        pop.poll(SimTime::from_secs(4), B, &origin, fixed_delay(1));
        pop.poll(SimTime::from_secs(10), B, &origin, fixed_delay(1));
    }

    #[test]
    fn multiple_ready_chunks_batch_into_one_fetch_plan() {
        // Regression pin for the batched-fetch semantics: when several
        // chunks become ready between polls, the next poll issues ONE
        // FetchPlan covering all of them, fetches_started still counts
        // chunks, and every chunk in the batch lands at the same instant.
        let mut pop = FastlyPop::new(DatacenterId(8));
        let origin = vec![ready_chunk(0, 3), ready_chunk(1, 6)];
        let mut plans: Vec<FetchPlan> = Vec::new();
        let resp = pop.poll(SimTime::from_secs(100), B, &origin, |p: &FetchPlan| {
            plans.push(p.clone());
            SimDuration::from_millis(40)
        });
        assert_eq!(resp.fetches_started, 2, "fetches_started counts chunks");
        assert_eq!(
            plans,
            vec![FetchPlan {
                seqs: vec![0, 1],
                total_bytes: 200,
            }],
            "one plan covering the whole batch"
        );
        assert_eq!(pop.work.origin_fetches, 2);
        let expected = SimTime::from_secs(100) + SimDuration::from_millis(40);
        assert_eq!(pop.availability(B, 0), Some(expected));
        assert_eq!(pop.availability(B, 1), Some(expected));

        let resp = pop.poll(SimTime::from_secs(101), B, &origin, |p: &FetchPlan| {
            plans.push(p.clone());
            SimDuration::from_millis(40)
        });
        assert_eq!(resp.fetches_started, 0);
        assert_eq!(plans.len(), 1, "no plan sampled on a fetch-free poll");
    }
}
