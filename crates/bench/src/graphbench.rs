//! The one timed graph build behind every `graph_build` row and the
//! `graph_workers` curve of `BENCH_replay.json`.
//!
//! Everything except `wall_s` in a [`GraphBuildRun`] is deterministic in
//! `(spec, seed)` — and, by the parallel assembly contract (DESIGN.md
//! §12), *worker-invariant*: `bench_replay` asserts every K reproduces
//! the K=1 checksums before it writes the curve. Wall clocks live here
//! (not in the graph crate) so the generator itself stays clock-free;
//! [`timed_build`] carries the one `#[expect]` for its clock read.

use std::time::Instant;

use livescope_graph::{BuildOptions, BuildProfile, DiGraph, GraphSpec};
use livescope_telemetry::Telemetry;

/// One timed graph build (one point on the worker scaling curve).
#[derive(Clone, Debug)]
pub struct GraphBuildRun {
    /// Assembly worker shards the build ran with.
    pub workers: usize,
    /// End-to-end build wall seconds (decide + rewire + assemble).
    pub wall_s: f64,
    /// Deterministic high-water mark of the build buffers.
    pub peak_bytes: usize,
    /// Bytes held by the finished CSR graph.
    pub resident_bytes: usize,
    /// Directed edges in the finished graph.
    pub edges: usize,
    /// Top celebrity's follower count.
    pub max_in_degree: usize,
    /// Rewiring swaps applied.
    pub swaps_applied: u64,
    /// Full-layout digest ([`DiGraph::adjacency_checksum`]).
    pub adjacency_checksum: u64,
    /// Degree-sequence digest ([`DiGraph::degree_checksum`]).
    pub degree_checksum: u64,
}

/// Builds `spec` at `seed` with `workers` assembly shards, timing the
/// whole build and recording the `handler.graph.*` phase sections on
/// `telemetry` (inert when it is disabled).
#[expect(
    clippy::disallowed_methods,
    reason = "wraps each graph build in one wall-clock read pair for the graph_workers scaling curve; the graph crate itself reads no clock, and every sweep asserts checksum identity before any timing is reported"
)]
pub fn timed_build(
    spec: &GraphSpec,
    seed: u64,
    workers: usize,
    telemetry: &Telemetry,
) -> (DiGraph, GraphBuildRun) {
    let options = BuildOptions::new()
        .with_workers(workers)
        .with_profile(BuildProfile::new(telemetry));
    let t0 = Instant::now();
    let (graph, stats) = DiGraph::generate_with(spec, seed, &options);
    let wall_s = t0.elapsed().as_secs_f64();
    let run = GraphBuildRun {
        workers: stats.workers,
        wall_s,
        peak_bytes: stats.peak_bytes,
        resident_bytes: graph.resident_bytes(),
        edges: stats.edges,
        max_in_degree: graph.degrees().max_in_degree(),
        swaps_applied: stats.swaps_applied,
        adjacency_checksum: graph.adjacency_checksum(),
        degree_checksum: graph.degree_checksum(),
    };
    (graph, run)
}
