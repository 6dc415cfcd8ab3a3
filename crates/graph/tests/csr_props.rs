//! Property tests for the counting-sort CSR build: the determinism
//! contract says [`DiGraph::from_edges`] depends only on the edge
//! *multiset*, never on input order — that is what lets edge lists come
//! from any pipeline shape (streamed, sharded, shuffled) and still pin a
//! single checksum. A `BTreeMap` oracle double-checks the adjacency
//! against an independent implementation.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

use livescope_graph::{DiGraph, NodeId};

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

proptest! {
    #[test]
    fn build_is_independent_of_input_order(
        edges in vec(edge(), 0..600),
        shuffle_seed in any::<u64>(),
    ) {
        let g1 = DiGraph::from_edges(NODES, &edges);
        // Deterministic Fisher–Yates driven by the proptest-supplied seed.
        let mut shuffled = edges.clone();
        let mut state = shuffle_seed | 1;
        for i in (1..shuffled.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            shuffled.swap(i, (state >> 33) as usize % (i + 1));
        }
        let g2 = DiGraph::from_edges(NODES, &shuffled);
        prop_assert_eq!(g1.edge_count(), g2.edge_count());
        prop_assert_eq!(g1.adjacency_checksum(), g2.adjacency_checksum());
        prop_assert_eq!(g1.degree_checksum(), g2.degree_checksum());
        for u in 0..NODES as NodeId {
            prop_assert_eq!(g1.out_neighbors(u), g2.out_neighbors(u));
            prop_assert_eq!(g1.in_neighbors(u), g2.in_neighbors(u));
        }
    }

    #[test]
    fn build_matches_btree_oracle(edges in vec(edge(), 0..600)) {
        let g = DiGraph::from_edges(NODES, &edges);
        let want = oracle(&edges);
        let total: usize = want.values().map(BTreeSet::len).sum();
        prop_assert_eq!(g.edge_count(), total);
        for u in 0..NODES as NodeId {
            let got: Vec<NodeId> = g.out_neighbors(u).to_vec();
            let expect: Vec<NodeId> = want
                .get(&u)
                .map(|s| s.iter().copied().collect())
                .unwrap_or_default();
            prop_assert_eq!(got, expect);
            // In-neighbors: every source listing u, sorted.
            let expect_in: Vec<NodeId> = want
                .iter()
                .filter(|(_, targets)| targets.contains(&u))
                .map(|(&s, _)| s)
                .collect();
            prop_assert_eq!(g.in_neighbors(u).to_vec(), expect_in);
        }
    }

    #[test]
    fn degree_view_and_raw_views_agree_with_slices(edges in vec(edge(), 0..400)) {
        let g = DiGraph::from_edges(NODES, &edges);
        let d = g.degrees();
        let (out_off, out_t) = g.out_csr();
        let (in_off, in_s) = g.in_csr();
        prop_assert_eq!(out_off[NODES] as usize, g.edge_count());
        prop_assert_eq!(in_off[NODES] as usize, g.edge_count());
        for u in 0..NODES {
            prop_assert_eq!(d.out_degree(u as NodeId), g.out_degree(u as NodeId));
            prop_assert_eq!(d.in_degree(u as NodeId), g.in_degree(u as NodeId));
            prop_assert_eq!(
                &out_t[out_off[u] as usize..out_off[u + 1] as usize],
                g.out_neighbors(u as NodeId)
            );
            prop_assert_eq!(
                &in_s[in_off[u] as usize..in_off[u + 1] as usize],
                g.in_neighbors(u as NodeId)
            );
        }
    }
}
