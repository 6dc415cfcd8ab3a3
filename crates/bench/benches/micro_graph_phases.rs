//! Follow-graph build phases (DESIGN.md §12) without a divisor-1 build:
//! each preset is built once with `disassortative_passes: 0.0` (phase-1
//! decide + phase-2 assemble only) and once as the preset ships (adds
//! the rewiring loop), so
//!
//! * `ns/edge` of a whole build = `1000 / Melem/s` of its line, and
//! * `ns/swap-proposal` = (`rewired` mean − `decide_assemble` mean) /
//!   proposals, the proposal count being `⌊edges × passes⌋` (printed).
//!
//! Periscope (mean 19 follows, 0.6 passes) runs at the benchmark's
//! `graph_build` size (300k nodes) and at divisor 10 (1.2M), where
//! neither the prefix sum nor the target array fits any cache; Twitter
//! (mean 7, 3.0 passes) is the rewire-heaviest shape, three proposals
//! per edge. Every spec's adjacency checksum is asserted, before
//! anything is timed, against the value the whole-array-search /
//! sorted-mirror generator produced, so `cargo test --bench
//! micro_graph_phases` (one untimed execution per body) is a
//! byte-identity gate of its own.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use livescope_graph::{DiGraph, FollowParams, GraphKind, GraphSpec};

const SEED: u64 = 42;

/// One preset at one population, with the adjacency checksums of its
/// unrewired and rewired builds at [`SEED`].
struct Case {
    name: &'static str,
    spec: GraphSpec,
    samples: usize,
    decide_assemble: u64,
    rewired: u64,
}

/// The follow parameters of a preset.
fn follow_params(spec: &GraphSpec) -> FollowParams {
    match spec.kind {
        GraphKind::Follow(p) => p,
        GraphKind::Friendship(_) => panic!("follow presets only"),
    }
}

/// `spec` with the rewiring loop switched off.
fn without_rewiring(spec: GraphSpec) -> GraphSpec {
    GraphSpec {
        kind: GraphKind::Follow(FollowParams {
            disassortative_passes: 0.0,
            ..follow_params(&spec)
        }),
        ..spec
    }
}

fn bench_graph_phases(c: &mut Criterion) {
    let cases = [
        Case {
            name: "periscope_300k",
            spec: GraphSpec::periscope().with_nodes(300_000),
            samples: 5,
            decide_assemble: 0x7e898f75e3f5f6d7,
            rewired: 0x652831a42a61f6ac,
        },
        Case {
            name: "periscope_1200k",
            spec: GraphSpec::periscope().with_nodes(1_200_000),
            samples: 3,
            decide_assemble: 0x7885b39e9dbc7e64,
            rewired: 0xc9563a759bf992dd,
        },
        Case {
            name: "twitter_300k",
            spec: GraphSpec::twitter().with_nodes(300_000),
            samples: 5,
            decide_assemble: 0xf4377e7d152b5a0e,
            rewired: 0x281f62f12ee8ff03,
        },
    ];
    for case in cases {
        let mut edges = 0;
        for (label, spec, pinned) in [
            (
                "decide_assemble",
                without_rewiring(case.spec),
                case.decide_assemble,
            ),
            ("rewired", case.spec, case.rewired),
        ] {
            let g = DiGraph::generate(&spec, SEED);
            assert_eq!(
                g.adjacency_checksum(),
                pinned,
                "{}/{label}: the build no longer emits the pinned graph",
                case.name
            );
            edges = g.edge_count();
            drop(g);

            let mut group = c.benchmark_group(&format!("graph_phases_{}", case.name));
            group.sample_size(case.samples);
            group.throughput(Throughput::Elements(edges as u64));
            group.bench_function(label, |bench| bench.iter(|| DiGraph::generate(&spec, SEED)));
            group.finish();
        }
        println!(
            "graph_phases_{}: {edges} edges, {} swap proposals",
            case.name,
            (edges as f64 * follow_params(&case.spec).disassortative_passes) as usize
        );
    }
}

criterion_group!(benches, bench_graph_phases);
criterion_main!(benches);
