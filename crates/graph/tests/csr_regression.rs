//! Pins the two-phase CSR generators byte-identical to the retired
//! urn/`BTreeSet` implementation.
//!
//! Every constant below was captured by running the pre-redesign
//! generator (commit 254ec5b) over the same `(spec, seed)` pair and
//! hashing its CSR with the same `adjacency_checksum`/`degree_checksum`
//! formulas now hosted on `DiGraph`. A mismatch means the redesign
//! changed the emitted graph — which would silently shift every
//! downstream figure (Table 2, the replay workload, Fig 7) — not merely
//! its layout.

use livescope_graph::{DiGraph, GraphSpec};
use livescope_sim::RngPool;

struct Golden {
    name: &'static str,
    edges: usize,
    adjacency: u64,
    degree: u64,
}

fn check(g: &DiGraph, golden: &Golden) {
    assert_eq!(g.edge_count(), golden.edges, "{}: edge count", golden.name);
    assert_eq!(
        g.adjacency_checksum(),
        golden.adjacency,
        "{}: adjacency checksum",
        golden.name
    );
    assert_eq!(
        g.degree_checksum(),
        golden.degree,
        "{}: degree checksum",
        golden.name
    );
}

/// The divisor-1000 replay graph: periscope preset at 12 000 users,
/// seeded exactly as `livescope_workload`'s default graph path does.
/// This is the ISSUE's headline pin: divisor-1000 figures byte-identical
/// across the redesign.
#[test]
fn divisor_1000_periscope_graph_matches_old_generator() {
    let seed = RngPool::new(0x5ca1ab1e).stream_seed("graph");
    assert_eq!(seed, 0xbf9eebf962ac3326, "workload graph seed drifted");
    let g = DiGraph::generate(&GraphSpec::periscope().with_nodes(12_000), seed);
    check(
        &g,
        &Golden {
            name: "div1000-periscope",
            edges: 227_422,
            adjacency: 0xd3d5723ae01c845b,
            degree: 0x04e34b169564bc8c,
        },
    );
}

/// The meerkat-flavoured workload graph (custom follow parameters).
#[test]
fn meerkat_workload_graph_matches_old_generator() {
    use livescope_graph::{FollowParams, GraphKind};
    let seed = RngPool::new(0x0ddba11).stream_seed("graph");
    assert_eq!(seed, 0x5d7750af17885e1c, "workload graph seed drifted");
    let spec = GraphSpec {
        nodes: 5_000,
        kind: GraphKind::Follow(FollowParams {
            mean_follows: 4.0,
            preferential_bias: 0.7,
            triadic_closure: 0.2,
            disassortative_passes: 1.0,
        }),
    };
    check(
        &DiGraph::generate(&spec, seed),
        &Golden {
            name: "meerkat-5000",
            edges: 19_993,
            adjacency: 0x04d7a86b285a8413,
            degree: 0xa727a9a5e69f9dd4,
        },
    );
}

/// The three Table 2 presets at calibrate_table2 scale (6 000 nodes,
/// seed 5) — re-pins the degree-distribution calibration across the
/// redesign for all three generator recipes, including the friendship
/// path (urn + sorted-adjacency membership + XBS rewiring + closure).
#[test]
fn table2_calibration_graphs_match_old_generator() {
    let goldens = [
        (
            GraphSpec::periscope(),
            Golden {
                name: "table2-periscope-6000",
                edges: 114_401,
                adjacency: 0xaa3dc681cee9d514,
                degree: 0x59df4f8cc09a1346,
            },
        ),
        (
            GraphSpec::twitter(),
            Golden {
                name: "table2-twitter-6000",
                edges: 41_614,
                adjacency: 0x87d82eb8074f7441,
                degree: 0x62dc306fd360399d,
            },
        ),
        (
            GraphSpec::facebook(),
            Golden {
                name: "table2-facebook-6000",
                edges: 399_572,
                adjacency: 0xedf69f4523843aa9,
                degree: 0x420b26128f214f1e,
            },
        ),
    ];
    for (spec, golden) in goldens {
        check(&DiGraph::generate(&spec.with_nodes(6_000), 5), &golden);
    }
}

/// Small fast pins for the shapes the unit tests exercise.
#[test]
fn small_graphs_match_old_generator() {
    use livescope_graph::{FriendshipParams, GraphKind};
    let g = DiGraph::generate(&GraphSpec::twitter().with_nodes(500), 7);
    check(
        &g,
        &Golden {
            name: "small-twitter-500",
            edges: 3_474,
            adjacency: 0xa673baccd8ae36cc,
            degree: 0x3fb505ec235c5884,
        },
    );
    let spec = GraphSpec {
        nodes: 800,
        kind: GraphKind::Friendship(FriendshipParams {
            mean_friends: 10.0,
            triadic_closure: 0.5,
            rewire_passes: 0.5,
            community_size: 0,
            community_bias: 0.0,
            closure_extra: 0.4,
        }),
    };
    check(
        &DiGraph::generate(&spec, 2),
        &Golden {
            name: "small-friendship-800",
            edges: 22_596,
            adjacency: 0x536b1b95823b9d8e,
            degree: 0x07edf8364d7edf02,
        },
    );
}
