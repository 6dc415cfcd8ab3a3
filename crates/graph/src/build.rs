//! Two-phase CSR assembly machinery (DESIGN.md §12).
//!
//! The generators in [`crate::generate`] stream their RNG decisions into a
//! flat, source-grouped target array plus a `u64` prefix-sum of per-node
//! out-degrees (phase 1). This module owns phase 2: narrowing that prefix
//! sum to the graph's `u32` offsets (`narrow_offsets`, the one place a
//! graph past `u32::MAX` edges is refused) and turning the grouped edge
//! list into both CSR directions with counting sort in `O(V + E)`, plus
//! the slot-to-source index (`CsrScratch`) the follow rewiring loop reads
//! once per edge it draws.
//!
//! Determinism argument: counting sort is a *stable* scatter — sources are
//! visited in ascending order, so every in-adjacency list comes out sorted
//! by source without a comparison sort, and the output depends only on the
//! input edge multiset, never on iteration order of any hashed container.
//!
//! Phase 2 runs on one thread (DESIGN.md §12): it is about a tenth of a
//! build, so the loops below are the only assembly path.

use crate::digraph::{DiGraph, NodeId};

/// Build-time statistics for one [`DiGraph::generate_with_stats`]
/// (`crate::generate`) run. Everything here is deterministic for a given
/// `(spec, seed)` pair — `peak_bytes` counts buffer capacities, which are
/// fixed by the allocation pattern, not by the allocator — so these
/// values can be pinned in regression baselines.
#[derive(Clone, Copy, Debug)]
pub struct GraphBuildStats {
    /// Nodes in the finished graph.
    pub nodes: usize,
    /// Directed edges in the finished graph.
    pub edges: usize,
    /// High-water mark of bytes held by build buffers (including the
    /// finished graph itself), sampled at phase boundaries and every few
    /// thousand nodes during generation.
    pub peak_bytes: usize,
    /// Degree-preserving rewiring swaps actually applied (not attempted).
    pub swaps_applied: u64,
}

/// Running high-water mark of build-buffer bytes.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PeakTracker {
    peak: usize,
}

impl PeakTracker {
    /// Folds one sample into the high-water mark.
    pub(crate) fn observe(&mut self, bytes: usize) {
        self.peak = self.peak.max(bytes);
    }

    /// The high-water mark so far.
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }
}

/// Refuses a phase-2 worker count above one, for the two signatures
/// that still take one (`BuildOptions::with_workers`,
/// `DiGraph::from_edges_with`). Zero and one both mean the one path.
///
/// # Panics
///
/// If `workers > 1`: no caller should believe a larger value does
/// anything.
pub(crate) fn assert_one_worker(workers: usize) {
    assert!(
        workers <= 1,
        "workers = {workers}: the parallel CSR assembly was removed; phase 2 runs on one thread"
    );
}

/// Moves every offset one slot right and zeroes slot 0. A counting
/// sort that scatters through its own offsets leaves `offsets[k]` at the
/// end of key `k`'s segment; this puts each end where it belongs, at
/// `offsets[k + 1]`.
pub(crate) fn shift_right(offsets: &mut [u32]) {
    let keys = offsets.len() - 1;
    offsets.copy_within(0..keys, 1);
    offsets[0] = 0;
}

/// Narrows a `u64` CSR prefix sum to the graph's `u32` offsets.
///
/// # Panics
///
/// If the edge total (the last entry) exceeds `u32::MAX`: no graph is
/// built past that bound, which is ~18× the paper's Periscope graph.
pub(crate) fn narrow_offsets(raw: Vec<u64>) -> Vec<u32> {
    let total = raw.last().copied().unwrap_or(0);
    assert!(
        total <= u64::from(u32::MAX),
        "a CSR of {total} edges exceeds the u32 offset limit of {} edges",
        u32::MAX
    );
    raw.iter().map(|&x| x as u32).collect()
}

/// The in-direction of an out-CSR whose segments are sorted, by counting
/// sort: count each node's in-degree into `in_offsets[v + 1]`,
/// prefix-sum, then scatter sources in ascending order with
/// `in_offsets[v]` itself as node `v`'s write cursor, and
/// [`shift_right`] the cursors back into offsets. Stable, so every
/// in-list comes out sorted by source with no per-list sort. Returns
/// `(in_offsets, in_sources)`.
fn transpose(
    node_count: usize,
    out_offsets: &[u32],
    out_targets: &[NodeId],
) -> (Vec<u32>, Vec<NodeId>) {
    let mut in_offsets = vec![0u32; node_count + 1];
    let mut in_sources = vec![0 as NodeId; out_targets.len()];
    for &v in out_targets {
        in_offsets[v as usize + 1] += 1;
    }
    for i in 0..node_count {
        let prev = in_offsets[i];
        in_offsets[i + 1] += prev;
    }
    for u in 0..node_count {
        let (s, e) = (out_offsets[u] as usize, out_offsets[u + 1] as usize);
        for &v in &out_targets[s..e] {
            let c = &mut in_offsets[v as usize];
            in_sources[*c as usize] = u as NodeId;
            *c += 1;
        }
    }
    shift_right(&mut in_offsets);
    (in_offsets, in_sources)
}

/// Phase 2: assembles a [`DiGraph`] from an out-CSR whose segments are
/// already sorted and deduplicated (offsets narrowed by
/// [`narrow_offsets`]), allocating nothing the graph does not keep: the
/// target array is trimmed to its length before [`transpose`] builds the
/// in-direction.
pub(crate) fn assemble(
    node_count: usize,
    out_offsets: Vec<u32>,
    mut out_targets: Vec<NodeId>,
    peak: &mut PeakTracker,
) -> DiGraph {
    debug_assert_eq!(out_offsets.len(), node_count + 1);
    debug_assert_eq!(
        *out_offsets.last().unwrap_or(&0) as usize,
        out_targets.len()
    );
    out_targets.shrink_to_fit();
    let (in_offsets, in_sources) = transpose(node_count, &out_offsets, &out_targets);
    peak.observe(
        (out_offsets.capacity() + in_offsets.capacity()) * std::mem::size_of::<u32>()
            + (out_targets.capacity() + in_sources.capacity()) * std::mem::size_of::<NodeId>(),
    );
    DiGraph::from_parts(node_count, out_offsets, out_targets, in_offsets, in_sources)
}

/// Flat edges per `source_of` hint block (`1 << BLOCK_SHIFT`).
const BLOCK_SHIFT: usize = 8;

/// The follow-rewiring edge-slot index: which node owns flat edge slot
/// `i` of a source-grouped target array.
///
/// Degree-preserving swaps never change any node's out-degree, so the
/// offsets are immutable while rewiring runs and the `block_src` hint
/// table (source of every 256th flat edge) never goes stale: `source_of`
/// narrows its search to the couple of nodes between two adjacent block
/// anchors instead of binary-searching all `V + 1` offsets — the
/// rewiring loop's hottest read at paper scale, where the offsets array
/// alone is ~96 MiB of cache misses. The target array itself stays with
/// the generator (`generate::build_follow` swaps it in slot order and
/// re-sorts the segments once at the end).
pub(crate) struct CsrScratch<'a> {
    offsets: &'a [u64],
    /// `block_src[b]` = source node of flat edge `b << BLOCK_SHIFT`,
    /// with one trailing `node_count - 1` sentinel so every lookup has
    /// an upper anchor.
    block_src: Vec<NodeId>,
}

impl CsrScratch<'_> {
    /// Indexes the edge slots of an out-CSR prefix-sum array.
    pub(crate) fn new(offsets: &[u64]) -> CsrScratch<'_> {
        let node_count = offsets.len().saturating_sub(1);
        let edge_total = *offsets.last().unwrap_or(&0) as usize;
        let blocks = (edge_total >> BLOCK_SHIFT) + 1;
        let mut block_src = Vec::with_capacity(blocks + 1);
        let mut u = 0usize;
        for b in 0..blocks {
            let first = (b << BLOCK_SHIFT) as u64;
            while u + 1 < node_count && offsets[u + 1] <= first {
                u += 1;
            }
            block_src.push(u as NodeId);
        }
        block_src.push(node_count.saturating_sub(1) as NodeId);
        CsrScratch { offsets, block_src }
    }

    /// The node owning flat edge position `edge_idx` (positions never
    /// move because degrees never change). The block anchors bound the
    /// answer to `[block_src[b], block_src[b + 1]]`, leaving a short
    /// partition-point search over at most one block's worth of nodes.
    pub(crate) fn source_of(&self, edge_idx: usize) -> NodeId {
        let b = edge_idx >> BLOCK_SHIFT;
        let lo = self.block_src[b] as usize;
        let hi = self.block_src[b + 1] as usize;
        let idx = edge_idx as u64;
        lo as NodeId + self.offsets[lo + 1..hi + 1].partition_point(|&e| e <= idx) as NodeId
    }

    /// Bytes held by the hint table (the offsets are borrowed).
    pub(crate) fn heap_bytes(&self) -> usize {
        self.block_src.capacity() * std::mem::size_of::<NodeId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_of_skips_empty_segments() {
        // Node 0 owns 3 edge slots, node 1 none, node 2 two.
        let s = CsrScratch::new(&[0, 3, 3, 5]);
        assert_eq!(s.source_of(0), 0);
        assert_eq!(s.source_of(2), 0);
        assert_eq!(s.source_of(3), 2);
        assert_eq!(s.source_of(4), 2);
    }

    #[test]
    fn source_of_agrees_with_full_binary_search_across_blocks() {
        // > one block of edges so the hint table has interior anchors:
        // 1000 nodes, node u owning u % 3 edges (some segments empty).
        let mut offsets = vec![0u64];
        for u in 0..1000u64 {
            offsets.push(offsets[u as usize] + u % 3);
        }
        let total = *offsets.last().unwrap() as usize;
        let s = CsrScratch::new(&offsets);
        for idx in 0..total {
            let want = (offsets.partition_point(|&e| e <= idx as u64) - 1) as NodeId;
            assert_eq!(s.source_of(idx), want, "edge {idx}");
        }
    }

    #[test]
    fn assemble_builds_sorted_in_lists() {
        let mut peak = PeakTracker::default();
        // 0→1, 0→2, 2→1 grouped by source with sorted segments.
        let g = assemble(3, vec![0, 2, 2, 3], vec![1, 2, 1], &mut peak);
        assert_eq!(g.in_neighbors(1), &[0, 2]);
        assert_eq!(g.in_neighbors(2), &[0]);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert!(peak.peak() > 0);
    }

    #[test]
    fn narrow_offsets_keeps_an_edge_total_of_u32_max() {
        assert_eq!(
            narrow_offsets(vec![0, u64::from(u32::MAX)]),
            vec![0, u32::MAX]
        );
    }

    #[test]
    #[should_panic(
        expected = "a CSR of 4294967296 edges exceeds the u32 offset limit of 4294967295"
    )]
    fn narrow_offsets_refuses_an_edge_total_past_u32_max() {
        narrow_offsets(vec![0, u64::from(u32::MAX) + 1]);
    }

    #[test]
    fn shift_right_turns_segment_ends_into_offsets() {
        let mut ends = [3u32, 3, 5, 5];
        shift_right(&mut ends);
        assert_eq!(ends, [0, 3, 3, 5]);
        let mut empty = [0u32];
        shift_right(&mut empty);
        assert_eq!(empty, [0]);
    }
}
