//! Traversal-layout microbenches for the CSR adjacency store: the
//! numbers that justify DESIGN.md §12's width-adaptive `u32`/`u64`
//! offsets. Three access patterns over the same topology, each at both
//! offset widths (`DiGraph::with_wide_offsets` forces `u64` on a graph
//! that would narrow):
//!
//! * `seq_scan` — walk every out-segment in node order and sum targets:
//!   the pattern of checksums, serialization, and the parallel
//!   assembly's scatter scan. Streams both arrays; offset width sets
//!   how many offset cache lines ride along.
//! * `rand_out` / `rand_in` — follow a precomputed pseudo-random node
//!   sequence and touch that node's out-targets / in-sources: the
//!   pattern of the replay's per-broadcaster follower lookups and the
//!   rewiring loop. Every probe is two offset reads + one segment read,
//!   so narrow offsets double the chance both bounds share a line.
//!
//! Throughput is reported in edges (elements) so the two widths are
//! directly comparable per pattern.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use livescope_graph::{DiGraph, GraphSpec, NodeId};
use livescope_sim::rng::splitmix64;

/// Benchmark population: big enough that offsets outgrow L1/L2 and the
/// width actually shows, small enough to keep the bench under a minute.
const NODES: usize = 60_000;
const SEED: u64 = 42;
/// Random probes per iteration (amortizes the probe-sequence overhead).
const PROBES: usize = 4_096;

fn probe_sequence(nodes: usize) -> Vec<NodeId> {
    let mut state = 0x9E3779B97F4A7C15u64;
    (0..PROBES)
        .map(|_| {
            state = splitmix64(state);
            (state % nodes as u64) as NodeId
        })
        .collect()
}

fn seq_scan(g: &DiGraph) -> u64 {
    let mut acc = 0u64;
    for u in 0..g.node_count() as NodeId {
        for &v in g.out_neighbors(u) {
            acc = acc.wrapping_add(v as u64);
        }
    }
    acc
}

fn rand_probe(g: &DiGraph, probes: &[NodeId], inward: bool) -> u64 {
    let mut acc = 0u64;
    for &u in probes {
        let seg = if inward {
            g.in_neighbors(u)
        } else {
            g.out_neighbors(u)
        };
        for &v in seg {
            acc = acc.wrapping_add(v as u64);
        }
    }
    acc
}

fn bench_adjacency(c: &mut Criterion) {
    let narrow = DiGraph::generate(&GraphSpec::periscope().with_nodes(NODES), SEED);
    let wide = narrow.clone().with_wide_offsets();
    let edges = narrow.edge_count() as u64;
    let probes = probe_sequence(NODES);
    // Same topology, same checksums — only the offset width differs.
    assert_eq!(narrow.adjacency_checksum(), wide.adjacency_checksum());
    let (off, _) = narrow.out_csr();
    assert_eq!(off.entry_bytes(), 4, "narrow graph must store u32 offsets");
    let (off, _) = wide.out_csr();
    assert_eq!(off.entry_bytes(), 8, "wide graph must store u64 offsets");

    let mut group = c.benchmark_group("adjacency_seq_scan");
    group.throughput(Throughput::Elements(edges));
    group.bench_function("u32_offsets", |b| b.iter(|| seq_scan(&narrow)));
    group.bench_function("u64_offsets", |b| b.iter(|| seq_scan(&wide)));
    group.finish();

    let probed_out: u64 = probes
        .iter()
        .map(|&u| narrow.out_degree(u) as u64)
        .sum::<u64>()
        .max(1);
    let mut group = c.benchmark_group("adjacency_rand_out");
    group.throughput(Throughput::Elements(probed_out));
    group.bench_function("u32_offsets", |b| {
        b.iter(|| rand_probe(&narrow, &probes, false))
    });
    group.bench_function("u64_offsets", |b| {
        b.iter(|| rand_probe(&wide, &probes, false))
    });
    group.finish();

    let probed_in: u64 = probes
        .iter()
        .map(|&u| narrow.in_degree(u) as u64)
        .sum::<u64>()
        .max(1);
    let mut group = c.benchmark_group("adjacency_rand_in");
    group.throughput(Throughput::Elements(probed_in));
    group.bench_function("u32_offsets", |b| {
        b.iter(|| rand_probe(&narrow, &probes, true))
    });
    group.bench_function("u64_offsets", |b| {
        b.iter(|| rand_probe(&wide, &probes, true))
    });
    group.finish();
}

criterion_group!(benches, bench_adjacency);
criterion_main!(benches);
