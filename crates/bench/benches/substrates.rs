//! Micro-benches of the substrate hot paths: wire codecs, SHA-256, the
//! event scheduler, the chunker and graph generation.

#![forbid(unsafe_code)]

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use livescope_graph::{DiGraph, GraphSpec};
use livescope_proto::hls::ChunkList;
use livescope_proto::rtmp::{RtmpMessage, VideoFrame};
use livescope_sim::{RngPool, SchedulerBackend, ShardId, ShardedScheduler, SimDuration, SimTime};

fn bench_substrates(c: &mut Criterion) {
    // RTMP frame codec round-trip.
    let frame = VideoFrame::new(42, 1_234_567, true, Bytes::from(vec![7u8; 2_500]));
    let wire = RtmpMessage::Frame(frame.clone()).encode();
    let mut group = c.benchmark_group("proto");
    group.throughput(Throughput::Bytes(wire.len() as u64));
    group.bench_function("rtmp_frame_encode", |b| {
        b.iter(|| RtmpMessage::Frame(frame.clone()).encode())
    });
    group.bench_function("rtmp_frame_decode", |b| {
        b.iter(|| RtmpMessage::decode(wire.clone()).unwrap())
    });
    let playlist_text = {
        let chunks: Vec<livescope_proto::hls::Chunk> = (0..6)
            .map(|s| livescope_proto::hls::Chunk {
                seq: s,
                start_ts_us: s * 3_000_000,
                duration_us: 3_000_000,
                frames: vec![],
            })
            .collect();
        ChunkList::from_chunks(&chunks, 6).serialize()
    };
    group.bench_function("chunklist_parse", |b| {
        b.iter(|| ChunkList::parse(&playlist_text).unwrap())
    });
    group.finish();

    // SHA-256 throughput (the defense's per-frame hash).
    let payload = vec![0xA5u8; 2_500];
    let mut sha = c.benchmark_group("sha256");
    sha.throughput(Throughput::Bytes(payload.len() as u64));
    sha.bench_function("digest_2500B_frame", |b| {
        b.iter(|| livescope_security::sha256::digest(&payload))
    });
    sha.finish();

    // Event scheduler throughput.
    c.bench_function("scheduler_10k_events", |b| {
        b.iter(|| {
            let mut sched =
                ShardedScheduler::new(RngPool::new(1), vec![0u64], SimDuration::from_secs(1));
            for i in 0..10_000u64 {
                sched.schedule(
                    ShardId(0),
                    SimTime::from_micros(i * 7 % 9_999),
                    Box::new(|_, count| *count += 1),
                );
            }
            sched.run();
            assert_eq!(sched.into_states(), vec![10_000]);
        })
    });

    // Chunker hot path.
    c.bench_function("chunker_750_frames", |b| {
        b.iter(|| {
            let mut chunker = livescope_cdn::Chunker::new(SimDuration::from_secs(3));
            let mut chunks = 0;
            for i in 0..750u64 {
                let f = VideoFrame::new(i, i * 40_000, i % 50 == 0, Bytes::from_static(&[0u8; 64]));
                if chunker.push(SimTime::from_millis(i * 40), f).is_some() {
                    chunks += 1;
                }
            }
            assert_eq!(chunks, 9);
        })
    });

    // Graph generation (Table 2 substrate).
    c.bench_function("follow_graph_5k_nodes", |b| {
        b.iter(|| DiGraph::generate(&GraphSpec::twitter().with_nodes(5_000), 1))
    });
}

criterion_group!(benches, bench_substrates);
criterion_main!(benches);
