//! The traced run: every layer timed from outside, around calls to its
//! public functions, on the inputs of the workload that leans on it
//! most. The driver wants every per-layer metric from every traced run,
//! so the layer drivers do not depend on the workload asked for; it
//! names the span file.
//!
//! Counts (`count`, `bytes`, `us`) are exact and must repeat bit for bit
//! for a seed; everything in `s`, `ns`, `1/s` or `ratio` is host time.

use std::hint::black_box;

use bytes::Bytes;
use livescope_analysis::QuantileSketch;
use livescope_cdn::fanout::{build_origin, run_fanout, FanoutConfig};
use livescope_cdn::fastly::LIVE_WINDOW;
use livescope_cdn::ids::UserId;
use livescope_cdn::Cluster;
use livescope_core::experiments::breakdown;
use livescope_crawler::streaming::DEFAULT_EXEMPLARS;
use livescope_crawler::{CampaignConfig, OutageFilter, StreamingCampaign};
use livescope_graph::{DiGraph, NodeId};
use livescope_net::geo::GeoPoint;
use livescope_proto::hls::ChunkList;
use livescope_proto::rtmp::{RtmpMessage, VideoFrame};
use livescope_sim::rng::splitmix64;
use livescope_sim::{
    RngPool, Scheduler, SchedulerBackend, ShardId, ShardedScheduler, SimDuration, SimTime,
};
use livescope_telemetry::{MetricsSnapshot, Telemetry};
use livescope_workload::{
    generate_streaming_with_graph, BroadcastRecord, RecordSampler, ScheduleStream,
    ScheduledBroadcast,
};

use crate::host::{nanos_since, now, quantile, secs_since};
use crate::report::{Check, Metric, Report};
use crate::trace::Trace;
use crate::workloads::{
    breakdown_config, breakdown_digest, build_graph, fanout_config, fanout_digest, graph_digest,
    replay, scenario, summary_digest, Workload,
};

/// Events a recording telemetry handle keeps; the rest are counted as
/// dropped, which is all `telemetry.events_emitted.*` needs.
const SINK_CAPACITY: usize = 4_096;

/// Encode + decode round trips timed per `proto` codec.
const CODEC_ROUND_TRIPS: u64 = 20_000;

struct Layers {
    trace: Trace,
    check: Check,
    metrics: Vec<Metric>,
}

impl Layers {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn count(&mut self, name: &'static str, value: u64) {
        self.put(name, value as f64, "count");
    }

    /// Runs `f` under a span that becomes the parent of every span `f`
    /// opens: one per workload whose layers are being driven.
    fn group<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Layers) -> T) -> T {
        let span = self.trace.open(name);
        let out = f(self);
        self.trace.close(span);
        out
    }

    /// Copies a telemetry counter under its own name.
    fn counter(&mut self, snapshot: &MetricsSnapshot, name: &'static str) -> u64 {
        let value = snapshot
            .counter(name)
            .unwrap_or_else(|| panic!("no telemetry counter named {name}"));
        self.count(name, value);
        value
    }
}

/// `name` is the workload asked for; it names the span file.
pub fn traced(name: &str, seed: u64) -> Report {
    let mut l = Layers {
        trace: Trace::new(),
        check: Check::new(seed),
        metrics: Vec::new(),
    };
    let graph = l.group("graph_build", |l| graph_layer(l, seed));
    l.group("usage_replay", |l| replay_layers(l, seed, &graph));
    drop(graph);
    let sharded_events = l.group("edge_fanout", |l| {
        edge_layers(l, seed);
        fanout_layers(l, seed)
    });
    let single_events = l.group("live_sessions", |l| {
        proto_layer(l);
        session_layers(l, seed)
    });
    l.group("sim.queue", |l| {
        queue_layer(l, seed, single_events, sharded_events)
    });

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{name}.json");
    std::fs::create_dir_all(dir).expect("create the span directory");
    std::fs::write(&path, l.trace.to_json(name, seed)).expect("write the span file");
    println!("spans written to {path}");
    Report {
        check: l.check,
        metrics: l.metrics,
    }
}

/// `graph`: the CSR write path (generation, then phase 2 alone).
fn graph_layer(l: &mut Layers, seed: u64) -> DiGraph {
    let ((graph, stats), generate_s) = l.trace.span("graph.generate", || build_graph(seed));
    l.check.verify(
        Workload::GraphBuild,
        graph_digest(&graph),
        graph.edge_count() as u64,
    );
    let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
    let (reassembled, assemble_s) = l.trace.span("graph.assemble", || {
        DiGraph::from_edges_with(graph.node_count(), &edges, 1)
    });
    l.check.verify(
        Workload::GraphBuild,
        graph_digest(&reassembled),
        reassembled.edge_count() as u64,
    );
    l.put("graph.generate_s", generate_s, "s");
    l.put("graph.assemble_s", assemble_s, "s");
    l.put("graph.decide_rewire_s", generate_s - assemble_s, "s");
    l.count("graph.edges", stats.edges as u64);
    l.count("graph.swaps_applied", stats.swaps_applied);
    l.put("graph.peak_build_bytes", stats.peak_bytes as f64, "bytes");
    l.put(
        "graph.resident_bytes",
        graph.resident_bytes() as f64,
        "bytes",
    );
    graph
}

/// `workload`, `crawler`, `analysis` and the `graph` read path: the
/// replay taken apart stage by stage, then once composed.
fn replay_layers(l: &mut Layers, seed: u64, graph: &DiGraph) {
    let scenario = scenario(seed);
    let campaign = CampaignConfig::periscope_study();

    let (slots, schedule_s) = l.trace.span("workload.schedule", || {
        ScheduleStream::new(&scenario).collect::<Vec<ScheduledBroadcast>>()
    });
    let per_record_ns = |s: f64| s * 1e9 / slots.len() as f64;
    let (followers, probe_s) = l.trace.span("graph.probe", || {
        slots
            .iter()
            .map(|slot| graph.in_degree(slot.broadcaster) as u64)
            .collect::<Vec<u64>>()
    });
    let ((records, mobile_views), sample_s) = l.trace.span("workload.sample", || {
        let sampler = RecordSampler::new(&scenario);
        let mut mobile_views = 0u64;
        let records: Vec<BroadcastRecord> = slots
            .iter()
            .zip(&followers)
            .map(|(&slot, &followers)| {
                sampler.sample(slot, followers, |viewer| {
                    black_box(viewer);
                    mobile_views += 1;
                })
            })
            .collect();
        (records, mobile_views)
    });
    let (summary, stream_s) = l.trace.span("workload.stream", || {
        let mut stream = generate_streaming_with_graph(&scenario, graph);
        for record in &mut stream {
            black_box(record);
        }
        stream.into_summary()
    });
    let (verdicts, filter_s) = l.trace.span("crawler.filter", || {
        let mut filter = OutageFilter::new(&campaign);
        slots
            .iter()
            .map(|slot| filter.observes(slot.day))
            .collect::<Vec<bool>>()
    });
    let recorded_viewers: Vec<f64> = records
        .iter()
        .zip(&verdicts)
        .filter(|(_, &recorded)| recorded)
        .map(|(record, _)| record.viewers as f64)
        .collect();
    let (folded, fold_s) = l.trace.span("crawler.fold", || {
        let mut acc =
            StreamingCampaign::new(&campaign, scenario.days, scenario.users, DEFAULT_EXEMPLARS);
        for (record, &recorded) in records.into_iter().zip(&verdicts) {
            if recorded {
                acc.observe(record);
            } else {
                acc.miss();
            }
        }
        acc
    });
    let tracked_bytes = folded.tracked_bytes();
    let (staged, finish_s) = l.trace.span("crawler.finish", || folded.finish(summary));
    let (_, sketch_s) = l.trace.span("analysis.sketch_push", || {
        let mut sketch = QuantileSketch::new();
        for &viewers in &recorded_viewers {
            sketch.push(viewers);
        }
        black_box(sketch.len())
    });
    let (composed, composed_s) = l
        .trace
        .span("usage_replay.composed", || replay(&scenario, graph));
    // The stages, run apart, must add up to the very summary the
    // composed replay produces.
    for summary in [&staged, &composed] {
        l.check.verify(
            Workload::UsageReplay,
            summary_digest(summary),
            summary.broadcasts() + summary.missed,
        );
    }

    l.put("graph.probe_ns", per_record_ns(probe_s), "ns");
    l.put("workload.schedule_s", schedule_s, "s");
    l.put("workload.sample_s", sample_s, "s");
    l.put(
        "workload.sample_ns_per_record",
        per_record_ns(sample_s),
        "ns",
    );
    // What the stream does besides schedule, probe and sample: per-user
    // tallies and the per-day bitsets.
    l.put(
        "workload.accounting_s",
        stream_s - schedule_s - probe_s - sample_s,
        "s",
    );
    l.count("workload.slots", slots.len() as u64);
    l.count("workload.mobile_views", mobile_views);
    l.put("crawler.filter_s", filter_s, "s");
    l.put("crawler.fold_s", fold_s, "s");
    l.put("crawler.fold_ns_per_record", per_record_ns(fold_s), "ns");
    l.put("crawler.finish_s", finish_s, "s");
    l.count("crawler.records_observed", staged.broadcasts());
    l.count("crawler.records_missed", staged.missed);
    l.put("crawler.tracked_bytes", tracked_bytes as f64, "bytes");
    l.put(
        "analysis.sketch_push_ns",
        sketch_s * 1e9 / recorded_viewers.len() as f64,
        "ns",
    );
    l.put(
        "usage_replay.stage_coverage",
        (stream_s + filter_s + fold_s + finish_s) / composed_s,
        "ratio",
    );
}

/// What one pass of the benchmark-owned edge loop did and how long each
/// call took.
struct EdgeLoop {
    ingest_s: f64,
    frames: u64,
    poll_ns: Vec<f64>,
    download_ns: Vec<f64>,
    chunks: u64,
}

/// The stream's frames as `fanout::build_origin` makes them: 2.5 KB,
/// with a 9 KB keyframe every 50.
fn stream_frame(seq: u64) -> VideoFrame {
    let keyframe = seq.is_multiple_of(50);
    let size = if keyframe { 9_000 } else { 2_500 };
    VideoFrame::new(seq, seq * 40_000, keyframe, Bytes::from(vec![7u8; size]))
}

/// Ingests the fan-out workload's stream into a full cluster, then has
/// its viewers poll their POPs on the poll interval and download every
/// new chunk, timing each `poll_hls` and `download_chunk` call.
fn edge_loop(config: &FanoutConfig, telemetry: &Telemetry) -> EdgeLoop {
    let mut cluster = Cluster::new(
        &RngPool::new(config.seed),
        SimDuration::from_secs_f64(config.chunk_secs),
        100,
    );
    cluster.attach_telemetry(telemetry);
    let los_angeles = GeoPoint::new(34.05, -118.24);
    let grant = cluster.create_broadcast(SimTime::ZERO, UserId(1), &los_angeles);
    cluster
        .connect_publisher(SimTime::ZERO, grant.id, &grant.token)
        .expect("a fresh broadcast accepts its publisher");

    let frames = config.stream_secs * 25;
    let start = now();
    for seq in 0..frames {
        cluster
            .ingest_decoded(SimTime::from_millis(seq * 40), grant.id, stream_frame(seq))
            .expect("the publisher session is live");
    }
    let ingest_s = secs_since(start);

    let viewers = config.pops.len() * config.viewers_per_pop;
    let mut have: Vec<Option<u64>> = vec![None; viewers];
    let (mut poll_ns, mut download_ns) = (Vec::new(), Vec::new());
    let mut chunks = 0u64;
    let end_s = config.stream_secs as f64 + 10.0;
    let mut step = 0u32;
    loop {
        let mut polled = false;
        for (v, have) in have.iter_mut().enumerate() {
            // A fixed phase per viewer; the loop draws no randomness.
            let at = (v % 28) as f64 * 0.1 + step as f64 * config.poll_interval_s;
            if at > end_s {
                continue;
            }
            polled = true;
            let at = SimTime::from_secs_f64(at);
            let pop = config.pops[v % config.pops.len()];
            let start = now();
            let response = cluster.poll_hls(at, grant.id, pop);
            poll_ns.push(nanos_since(start) as f64);
            let response = response.expect("the broadcast is live");
            for entry in &response.chunklist.entries {
                if have.is_some_and(|seq| entry.seq <= seq) {
                    continue;
                }
                let start = now();
                let chunk = cluster.download_chunk(at, grant.id, pop, entry.seq);
                download_ns.push(nanos_since(start) as f64);
                if chunk.is_some() {
                    chunks += 1;
                    *have = Some(entry.seq);
                }
            }
        }
        if !polled {
            break;
        }
        step += 1;
    }
    EdgeLoop {
        ingest_s,
        frames,
        poll_ns,
        download_ns,
        chunks,
    }
}

/// `cdn`: origin assembly, ingest, and the edge poll/serve path with the
/// fan-out workload's viewer count — timed with telemetry off, counted
/// with it on.
fn edge_layers(l: &mut Layers, seed: u64) {
    let config = fanout_config(seed);
    let (origin, build_origin_s) = l.trace.span("cdn.build_origin", || {
        build_origin(config.stream_secs, config.chunk_secs)
    });
    black_box(origin);
    let (mut timed, _) = l.trace.span("cdn.edge_loop", || {
        edge_loop(&config, &Telemetry::disabled())
    });
    let telemetry = Telemetry::recording(SINK_CAPACITY);
    let (counted, _) = l
        .trace
        .span("cdn.edge_loop.counted", || edge_loop(&config, &telemetry));
    assert_eq!(
        timed.chunks, counted.chunks,
        "telemetry changed what the edge served"
    );
    let snapshot = telemetry.snapshot();

    l.put("cdn.build_origin_s", build_origin_s, "s");
    l.put(
        "cdn.ingest_ns",
        timed.ingest_s * 1e9 / timed.frames as f64,
        "ns",
    );
    l.put("cdn.poll_ns.p50", quantile(&mut timed.poll_ns, 0.5), "ns");
    l.put("cdn.poll_ns.p99", quantile(&mut timed.poll_ns, 0.99), "ns");
    l.put(
        "cdn.download_ns.p50",
        quantile(&mut timed.download_ns, 0.5),
        "ns",
    );
    l.put(
        "cdn.download_ns.p99",
        quantile(&mut timed.download_ns, 0.99),
        "ns",
    );
    let polls = l.counter(&snapshot, "fastly.polls_served");
    l.counter(&snapshot, "fastly.chunks_served");
    l.counter(&snapshot, "fastly.origin_fetches");
    let hits = snapshot.counter("fastly.poll_hits").unwrap_or(0);
    l.put("cdn.poll_hit_ratio", hits as f64 / polls as f64, "ratio");
}

/// `sim` (sharded kernel, lanes 1) and `telemetry` under the fan-out
/// workload. Returns the events one repetition fires.
fn fanout_layers(l: &mut Layers, seed: u64) -> u64 {
    let config = fanout_config(seed);
    let (plain, plain_s) = l.trace.span("edge_fanout.composed", || {
        run_fanout(&config, 1, &Telemetry::disabled())
    });
    let telemetry = Telemetry::recording(SINK_CAPACITY);
    let (recorded, recorded_s) = l.trace.span("edge_fanout.recorded", || {
        run_fanout(&config, 1, &telemetry)
    });
    for report in [&plain, &recorded] {
        l.check.verify(
            Workload::EdgeFanout,
            fanout_digest(report),
            report.chunks_served(),
        );
    }
    let snapshot = telemetry.snapshot();
    l.counter(&snapshot, "sim.sharded.events_fired");
    l.counter(&snapshot, "sim.sharded.epochs");
    l.counter(&snapshot, "sim.sharded.mail_delivered");
    l.put(
        "sim.host_ns_per_event.sharded",
        plain_s * 1e9 / plain.events_fired as f64,
        "ns",
    );
    l.put(
        "telemetry.trace_overhead_ratio.edge_fanout",
        recorded_s / plain_s,
        "ratio",
    );
    l.count(
        "telemetry.events_emitted.edge_fanout",
        telemetry.events().len() as u64 + telemetry.dropped_events(),
    );
    plain.events_fired
}

/// `sim` (legacy scheduler), `cdn` control/ingest, `client`, `core` and
/// `telemetry` under the per-session workload. Returns the events one
/// repetition fires.
fn session_layers(l: &mut Layers, seed: u64) -> u64 {
    let config = breakdown_config(seed);
    let (plain, plain_s) = l
        .trace
        .span("live_sessions.composed", || breakdown::run(&config));
    let telemetry = Telemetry::recording(SINK_CAPACITY);
    let (recorded, recorded_s) = l.trace.span("live_sessions.recorded", || {
        breakdown::run_traced(&config, &telemetry)
    });
    for report in [&plain, &recorded] {
        l.check.verify(
            Workload::LiveSessions,
            breakdown_digest(report),
            2 * report.rtmp_runs.len() as u64,
        );
    }
    let snapshot = telemetry.snapshot();
    // `breakdown` hands its scheduler no telemetry, so its event count is
    // taken from what its three event kinds each do exactly once: a frame
    // arrival ingests one frame; a probe tick or a viewer poll polls once.
    let polls = snapshot
        .counter("fastly.polls_served")
        .expect("the cluster's POPs count their polls");
    let events = l.counter(&snapshot, "wowza.frames_in") + polls;
    l.count("sim.events_fired", events);
    for name in [
        "wowza.frame_pushes",
        "wowza.chunks_built",
        "control.joins_rtmp",
        "control.joins_hls",
        "client.rtmp_units_received",
        "client.hls_chunks_received",
    ] {
        l.counter(&snapshot, name);
    }
    // The paper's result: a faster simulator must leave these untouched.
    l.put(
        "core.rtmp_delay_us",
        (plain.rtmp.total_s() * 1e6).round(),
        "us",
    );
    l.put(
        "core.hls_delay_us",
        (plain.hls.total_s() * 1e6).round(),
        "us",
    );
    l.put(
        "sim.host_ns_per_event.single",
        plain_s * 1e9 / events as f64,
        "ns",
    );
    l.put(
        "telemetry.trace_overhead_ratio.live_sessions",
        recorded_s / plain_s,
        "ratio",
    );
    l.count(
        "telemetry.events_emitted.live_sessions",
        telemetry.events().len() as u64 + telemetry.dropped_events(),
    );
    events
}

/// `sim` event queues alone: push then pop each workload's event count
/// through its kernel with handlers that only count.
fn queue_layer(l: &mut Layers, seed: u64, single_events: u64, sharded_events: u64) {
    let horizon_us = fanout_config(seed).stream_secs * 1_000_000;
    let fire_at = |i: u64| SimTime::from_micros(splitmix64(seed ^ i) % horizon_us);

    let (fired, single_s) = l.trace.span("sim.queue.single", || {
        let mut scheduler: Scheduler<u64> = Scheduler::new();
        for i in 0..single_events {
            scheduler.schedule_at(fire_at(i), |_, fired: &mut u64| *fired += 1);
        }
        let mut fired = 0u64;
        scheduler.run(&mut fired);
        fired
    });
    assert_eq!(fired, single_events, "the scheduler lost events");

    let config = fanout_config(seed);
    let shards = config.pops.len() as u64;
    let (fired, sharded_s) = l.trace.span("sim.queue.sharded", || {
        let mut scheduler = ShardedScheduler::new(
            RngPool::new(seed),
            vec![0u64; shards as usize],
            SimDuration::from_secs_f64(config.poll_interval_s),
        )
        .with_lanes(1);
        for i in 0..sharded_events {
            scheduler.schedule(
                ShardId((i % shards) as u16),
                fire_at(i),
                Box::new(|_, fired: &mut u64| *fired += 1),
            );
        }
        scheduler.run();
        scheduler.into_states().into_iter().sum::<u64>()
    });
    assert_eq!(fired, sharded_events, "the sharded scheduler lost events");

    l.put(
        "sim.queue_ops_per_s.single",
        2.0 * single_events as f64 / single_s,
        "1/s",
    );
    l.put(
        "sim.queue_ops_per_s.sharded",
        2.0 * sharded_events as f64 / sharded_s,
        "1/s",
    );
}

/// `proto`: the session workload's 2.5 KB RTMP frame and a live-window
/// chunklist, each encoded and decoded back.
fn proto_layer(l: &mut Layers) {
    let mut bytes_encoded = 0u64;
    let message = RtmpMessage::Frame(stream_frame(1));
    let (_, rtmp_s) = l.trace.span("proto.rtmp_frame", || {
        for _ in 0..CODEC_ROUND_TRIPS {
            let wire = black_box(&message).encode();
            bytes_encoded += wire.len() as u64;
            black_box(RtmpMessage::decode(wire).expect("own encoding decodes"));
        }
    });
    let origin = build_origin(3 * LIVE_WINDOW as u64, 3.0);
    let list = ChunkList::from_chunks(origin.iter().map(|ready| &*ready.chunk), LIVE_WINDOW);
    assert_eq!(list.entries.len(), LIVE_WINDOW);
    let (_, hls_s) = l.trace.span("proto.hls_chunklist", || {
        for _ in 0..CODEC_ROUND_TRIPS {
            let text = black_box(&list).serialize();
            bytes_encoded += text.len() as u64;
            black_box(ChunkList::parse(&text).expect("own playlist parses"));
        }
    });
    let per_trip_ns = |s: f64| s * 1e9 / CODEC_ROUND_TRIPS as f64;
    l.put("proto.rtmp_frame_ns", per_trip_ns(rtmp_s), "ns");
    l.put("proto.hls_chunklist_ns", per_trip_ns(hls_s), "ns");
    l.put("proto.bytes_encoded", bytes_encoded as f64, "bytes");
}
