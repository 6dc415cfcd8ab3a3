//! Ablation of the chunk-size design choice (§5.2): 1 s / 3 s / 10 s
//! chunks trade chunking delay against per-chunk server work and poll
//! pressure. The bench measures the server-side cost of chunking and
//! serving the same 30 s stream at each size.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use livescope_cdn::ids::BroadcastId;
use livescope_cdn::{Chunker, FastlyPop, FetchPlan};
use livescope_net::datacenters::DatacenterId;
use livescope_proto::rtmp::VideoFrame;
use livescope_sim::{SimDuration, SimTime};

fn frame(seq: u64) -> VideoFrame {
    VideoFrame::new(
        seq,
        seq * 40_000,
        seq.is_multiple_of(50),
        Bytes::from(vec![5u8; 2_500]),
    )
}

fn chunk_and_serve(chunk_secs: f64, viewers: usize) -> u64 {
    let mut chunker = Chunker::new(SimDuration::from_secs_f64(chunk_secs));
    let mut origin = Vec::new();
    for i in 0..750u64 {
        if let Some(ready) = chunker.push(SimTime::from_millis(i * 40), frame(i)) {
            origin.push(ready);
        }
    }
    let mut pop = FastlyPop::new(DatacenterId(8));
    let fetch = |_: &FetchPlan| SimDuration::from_millis(20);
    let b = BroadcastId(1);
    for v in 0..viewers {
        let mut have: Option<u64> = None;
        for poll in 0..12u64 {
            let now = SimTime::from_secs_f64(poll as f64 * 2.8 + v as f64 * 0.01);
            let resp = pop.poll(now, b, &origin, fetch);
            for e in &resp.chunklist.entries {
                if have.is_none_or(|h| e.seq > h) && pop.serve_chunk(now, b, e.seq).is_some() {
                    have = Some(e.seq);
                }
            }
        }
    }
    pop.work.polls_served + pop.work.chunks_served
}

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("chunk_ablation");
    for chunk_secs in [1.0f64, 3.0, 10.0] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{chunk_secs}s")),
            &chunk_secs,
            |b, &secs| b.iter(|| chunk_and_serve(secs, 20)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
