//! # livescope-graph — social graph storage, generators, metrics
//!
//! Table 2 of the paper compares Periscope's follow graph (12M nodes, 231M
//! edges) against reference Facebook and Twitter crawls on five structural
//! metrics, and Fig 7 correlates a broadcaster's follower count with its
//! audience size. Re-running those analyses needs three things, all built
//! here from scratch:
//!
//! * [`digraph`] — a compact CSR directed graph with `u32` offset
//!   arrays, O(1) degree lookups, cache-friendly
//!   neighbor slices, and raw `(offsets, targets)` views for checksum and
//!   serialization paths;
//! * [`generate`] — synthetic generators behind
//!   [`DiGraph::generate`](digraph::DiGraph::generate) whose outputs
//!   reproduce the *shape contrasts* in Table 2: a Periscope/Twitter-like
//!   asymmetric preferential-attachment follow graph (negative degree
//!   assortativity, short paths, modest clustering) and a Facebook-like
//!   symmetric graph (positive assortativity, higher clustering) —
//!   including the Xulvi-Brunet–Sokolov assortative rewiring pass used to
//!   push correlation above zero;
//! * [`build`] — the two-phase CSR assembly shared by the generators and
//!   [`DiGraph::from_edges`](digraph::DiGraph::from_edges): phase 1
//!   streams edge endpoints, phase 2 counting-sorts both directions in
//!   O(V+E) (DESIGN.md §12);
//! * [`metrics`] — average degree, sampled clustering coefficient, sampled
//!   average shortest-path length, and degree assortativity.
//!
//! Quickstart:
//!
//! ```
//! use livescope_graph::{DiGraph, GraphSpec};
//! let g = DiGraph::generate(&GraphSpec::periscope().with_nodes(2_000), 42);
//! assert_eq!(g.node_count(), 2_000);
//! let top_broadcaster = (0..2_000).max_by_key(|&u| g.in_degree(u)).unwrap();
//! assert!(g.in_degree(top_broadcaster) > 50); // celebrity hub
//! ```

pub mod build;
pub mod digraph;
pub mod generate;
pub mod metrics;

pub use build::GraphBuildStats;
pub use digraph::{DegreeView, DiGraph, NodeId};
pub use generate::{
    BuildOptions, BuildProfile, FollowParams, FriendshipParams, GraphKind, GraphSpec,
};
pub use metrics::GraphMetrics;
