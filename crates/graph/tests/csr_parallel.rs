//! Partition invariance of the parallel phase-2 assembly (DESIGN.md §12
//! "parallel assembly contract"): for every worker count K the K-shard
//! counting-sort scatter, run on K scoped threads, must emit the *same
//! bytes* as the sequential (K = 1, inline) build.

#![forbid(unsafe_code)]

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

use livescope_graph::{
    BuildOptions, DiGraph, FollowParams, FriendshipParams, GraphKind, GraphSpec, NodeId,
};

const NODES: usize = 48;

fn edge() -> impl Strategy<Value = (NodeId, NodeId)> {
    (0..NODES as NodeId, 0..NODES as NodeId)
}

/// Independent reference: sorted, deduplicated, self-loop-free adjacency.
fn oracle(edges: &[(NodeId, NodeId)]) -> BTreeMap<NodeId, BTreeSet<NodeId>> {
    let mut adj: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
    for &(u, v) in edges {
        if u != v {
            adj.entry(u).or_default().insert(v);
        }
    }
    adj
}

fn assert_same(a: &DiGraph, b: &DiGraph, label: &str) {
    assert_eq!(a.edge_count(), b.edge_count(), "{label}: edge count");
    assert_eq!(
        a.adjacency_checksum(),
        b.adjacency_checksum(),
        "{label}: adjacency checksum"
    );
    assert_eq!(
        a.degree_checksum(),
        b.degree_checksum(),
        "{label}: degree checksum"
    );
    for u in 0..a.node_count() as NodeId {
        assert_eq!(a.out_neighbors(u), b.out_neighbors(u), "{label}: out[{u}]");
        assert_eq!(a.in_neighbors(u), b.in_neighbors(u), "{label}: in[{u}]");
    }
}

proptest! {
    /// Every worker count produces the same graph as the sequential
    /// build, and that graph still matches the independent BTreeMap
    /// oracle (so "identical" cannot mean "identically wrong").
    #[test]
    fn sharded_assembly_is_partition_invariant(edges in vec(edge(), 0..600)) {
        let seq = DiGraph::from_edges(NODES, &edges);
        let want = oracle(&edges);
        let total: usize = want.values().map(BTreeSet::len).sum();
        prop_assert_eq!(seq.edge_count(), total);
        // K beyond the node count exercises the clamp; K=1 the pass-through.
        for workers in [1usize, 2, 3, 6, 16, NODES + 9] {
            let par = DiGraph::from_edges_with(NODES, &edges, workers);
            prop_assert_eq!(seq.adjacency_checksum(), par.adjacency_checksum());
            prop_assert_eq!(seq.degree_checksum(), par.degree_checksum());
            for u in 0..NODES as NodeId {
                prop_assert_eq!(par.out_neighbors(u), seq.out_neighbors(u));
                prop_assert_eq!(par.in_neighbors(u), seq.in_neighbors(u));
                let expect_in: Vec<NodeId> = want
                    .iter()
                    .filter(|(_, targets)| targets.contains(&u))
                    .map(|(&s, _)| s)
                    .collect();
                prop_assert_eq!(par.in_neighbors(u).to_vec(), expect_in);
            }
        }
    }
}

/// End-to-end generator runs: both generator families emit identical
/// graphs and identical deterministic stats for K ∈ {1, 2, 6}.
#[test]
fn generators_are_worker_invariant() {
    let follow = GraphSpec {
        nodes: 900,
        kind: GraphKind::Follow(FollowParams {
            mean_follows: 6.0,
            preferential_bias: 0.8,
            triadic_closure: 0.3,
            disassortative_passes: 1.0,
        }),
    };
    let friendship = GraphSpec {
        nodes: 600,
        kind: GraphKind::Friendship(FriendshipParams {
            mean_friends: 9.0,
            triadic_closure: 0.5,
            rewire_passes: 0.4,
            closure_extra: 0.3,
            community_size: 50,
            community_bias: 0.7,
        }),
    };
    for (spec, label) in [(follow, "follow"), (friendship, "friendship")] {
        let (seq, seq_stats) = DiGraph::generate_with_stats(&spec, 11);
        assert_eq!(seq_stats.workers, 1);
        for workers in [1usize, 2, 6] {
            let options = BuildOptions::new().with_workers(workers);
            let (par, stats) = DiGraph::generate_with(&spec, 11, &options);
            assert_same(&seq, &par, &format!("{label} workers={workers}"));
            assert_eq!(stats.workers, workers, "{label}");
            // The deterministic stats contract is worker-invariant too.
            assert_eq!(stats.edges, seq_stats.edges, "{label}");
            assert_eq!(stats.peak_bytes, seq_stats.peak_bytes, "{label}");
            assert_eq!(stats.swaps_applied, seq_stats.swaps_applied, "{label}");
        }
    }
}
