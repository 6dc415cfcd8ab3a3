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
//! ## Parallel assembly contract (DESIGN.md §12)
//!
//! Phase 2 is data-parallel over **disjoint target-node ranges**: with K
//! workers, worker `w` owns the contiguous node range `[t_w, t_{w+1})`
//! and fills exactly the in-CSR slice `in_sources[in_offsets[t_w] ..
//! in_offsets[t_{w+1}]]`, writing through its own in-offset slots
//! `in_offsets[t_w .. t_{w+1}]` as cursors — a `split_at_mut`
//! partition, so workers share no mutable state at the type level. Each
//! worker scans the full out-CSR in ascending-source order and keeps
//! only edges whose target falls in its range; within any single
//! in-segment that is *the same stable visit order the sequential
//! scatter uses*, so the output bytes are a pure function of the
//! out-CSR, independent of K and of thread scheduling (one shard runs
//! inline, more run on scoped threads via [`livescope_sim::run_parts`]).
//! `tests/csr_parallel.rs` property-tests this partition invariance
//! against the sequential path and the `BTreeMap` oracle.

use livescope_sim::run_parts;

use crate::digraph::{DiGraph, NodeId};

/// Build-time statistics for one [`DiGraph::generate_with_stats`]
/// (`crate::generate`) run. Everything here is deterministic for a given
/// `(spec, seed)` pair — `peak_bytes` counts buffer capacities, which are
/// fixed by the allocation pattern, not by the allocator or the worker
/// count (per-worker state is carved out of shared arrays by
/// `split_at_mut`, never allocated per shard) — so these values can be
/// pinned in regression baselines.
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
    /// Assembly worker shards the build ran with (≥ 1). An execution
    /// knob, never an observable: every value produces identical graphs.
    pub workers: usize,
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

/// Even node-space boundary `w` of `K` over `n` nodes.
fn node_bound(w: usize, workers: usize, n: usize) -> usize {
    w * n / workers
}

/// Parallel in-degree count: worker `w` owns the count slots of node
/// range `[node_bound(w), node_bound(w+1))` (a disjoint sub-slice of
/// `in_offsets[1..]`) and scans the full target array, counting only
/// targets in its range. Commutative per-slot addition with a single
/// writer per slot — identical to the sequential count for any K.
fn count_in_degrees(
    node_count: usize,
    out_targets: &[NodeId],
    in_offsets: &mut [u32],
    workers: usize,
) {
    let mut parts: Vec<(std::ops::Range<usize>, &mut [u32])> = Vec::with_capacity(workers);
    let mut rest: &mut [u32] = &mut in_offsets[1..];
    for w in 0..workers {
        let (start, end) = (
            node_bound(w, workers, node_count),
            node_bound(w + 1, workers, node_count),
        );
        let (head, tail) = std::mem::take(&mut rest).split_at_mut(end - start);
        parts.push((start..end, head));
        rest = tail;
    }
    run_parts(parts, |(range, counts)| {
        for &v in out_targets {
            let v = v as usize;
            if range.contains(&v) {
                counts[v - range.start] += 1;
            }
        }
    });
}

/// Parallel prefix pass over the per-node counts: independent in-place
/// prefix sums per block, one sequential carry walk over the K block
/// totals, then a parallel base-offset pass. Pure integer addition in a
/// fixed association, so the result is bit-identical to the sequential
/// prefix sum for any K.
fn prefix_sum(in_offsets: &mut [u32], workers: usize) {
    let node_count = in_offsets.len() - 1;
    fn split(in_offsets: &mut [u32], workers: usize, node_count: usize) -> Vec<&mut [u32]> {
        let mut blocks: Vec<&mut [u32]> = Vec::with_capacity(workers);
        let mut rest: &mut [u32] = &mut in_offsets[1..];
        for w in 0..workers {
            let len = node_bound(w + 1, workers, node_count) - node_bound(w, workers, node_count);
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(len);
            blocks.push(head);
            rest = tail;
        }
        blocks
    }
    run_parts(split(in_offsets, workers, node_count), |block| {
        let mut acc = 0;
        for x in block.iter_mut() {
            acc += *x;
            *x = acc;
        }
    });
    // Carry walk: block w's base is the sum of all earlier block totals
    // (each block's total now sits in its last element).
    let mut bases = Vec::with_capacity(workers);
    let mut carry = 0;
    for w in 0..workers {
        bases.push(carry);
        let end = node_bound(w + 1, workers, node_count);
        if end > node_bound(w, workers, node_count) {
            carry += in_offsets[end];
        }
    }
    run_parts(
        split(in_offsets, workers, node_count)
            .into_iter()
            .zip(bases)
            .collect(),
        |(block, base)| {
            if base != 0 {
                for x in block.iter_mut() {
                    *x += base;
                }
            }
        },
    );
}

/// Parallel stable scatter: worker `w` owns target range
/// `[tbounds[w], tbounds[w+1])` — boundaries chosen so each range holds
/// ~`E/K` in-edges — and fills the corresponding disjoint `in_sources`
/// slice by scanning the full out-CSR in ascending-source order. Its
/// write cursors are its own in-offset slots, which it leaves one
/// segment ahead (see [`transpose`]). See the module docs for the
/// byte-identity argument.
fn scatter(
    node_count: usize,
    out_offsets: &[u32],
    out_targets: &[NodeId],
    in_offsets: &mut [u32],
    in_sources: &mut [NodeId],
    workers: usize,
) {
    let edge_total = in_offsets[node_count] as usize;
    let mut tbounds = Vec::with_capacity(workers + 1);
    tbounds.push(0usize);
    for w in 1..workers {
        let want = edge_total * w / workers;
        let t = in_offsets.partition_point(|&e| (e as usize) < want);
        tbounds.push(t.max(tbounds[w - 1]).min(node_count));
    }
    tbounds.push(node_count);
    // Segment starts at the boundaries, read before the cursors move.
    let starts: Vec<usize> = tbounds.iter().map(|&t| in_offsets[t] as usize).collect();

    type Part<'a> = (
        std::ops::Range<usize>,
        &'a mut [u32],
        &'a mut [NodeId],
        usize,
    );
    let mut parts: Vec<Part<'_>> = Vec::with_capacity(workers);
    let mut cur_rest: &mut [u32] = &mut in_offsets[..node_count];
    let mut src_rest: &mut [NodeId] = in_sources;
    for w in 0..workers {
        let (t0, t1) = (tbounds[w], tbounds[w + 1]);
        let (cur, cr) = std::mem::take(&mut cur_rest).split_at_mut(t1 - t0);
        let (dst, sr) = std::mem::take(&mut src_rest).split_at_mut(starts[w + 1] - starts[w]);
        parts.push((t0..t1, cur, dst, starts[w]));
        cur_rest = cr;
        src_rest = sr;
    }
    run_parts(parts, |(range, cur, dst, base)| {
        for u in 0..node_count {
            let (s, e) = (out_offsets[u] as usize, out_offsets[u + 1] as usize);
            for &v in &out_targets[s..e] {
                let vi = v as usize;
                if range.contains(&vi) {
                    let c = &mut cur[vi - range.start];
                    dst[*c as usize - base] = u as NodeId;
                    *c += 1;
                }
            }
        }
    });
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
/// `(in_offsets, in_sources)`, identical for every `workers` value.
fn transpose(
    node_count: usize,
    out_offsets: &[u32],
    out_targets: &[NodeId],
    workers: usize,
) -> (Vec<u32>, Vec<NodeId>) {
    let mut in_offsets = vec![0u32; node_count + 1];
    let mut in_sources = vec![0 as NodeId; out_targets.len()];
    if workers == 1 {
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
    } else {
        count_in_degrees(node_count, out_targets, &mut in_offsets, workers);
        prefix_sum(&mut in_offsets, workers);
        scatter(
            node_count,
            out_offsets,
            out_targets,
            &mut in_offsets,
            &mut in_sources,
            workers,
        );
    }
    shift_right(&mut in_offsets);
    (in_offsets, in_sources)
}

/// Phase 2: assembles a [`DiGraph`] from an out-CSR whose segments are
/// already sorted and deduplicated (offsets narrowed by
/// [`narrow_offsets`]), allocating nothing the graph does not keep: the
/// target array is trimmed to its length before [`transpose`] builds the
/// in-direction.
///
/// `workers > 1` splits every pass over disjoint target-node ranges (see
/// the module docs); the single-worker path keeps the branch-free
/// sequential loops. Output bytes are identical for every `workers`
/// value.
pub(crate) fn assemble(
    node_count: usize,
    out_offsets: Vec<u32>,
    mut out_targets: Vec<NodeId>,
    workers: usize,
    peak: &mut PeakTracker,
) -> DiGraph {
    debug_assert_eq!(out_offsets.len(), node_count + 1);
    debug_assert_eq!(
        *out_offsets.last().unwrap_or(&0) as usize,
        out_targets.len()
    );
    let workers = workers.clamp(1, node_count.max(1));
    out_targets.shrink_to_fit();
    let (in_offsets, in_sources) = transpose(node_count, &out_offsets, &out_targets, workers);
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
        let g = assemble(3, vec![0, 2, 2, 3], vec![1, 2, 1], 1, &mut peak);
        assert_eq!(g.in_neighbors(1), &[0, 2]);
        assert_eq!(g.in_neighbors(2), &[0]);
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert!(peak.peak() > 0);
    }

    #[test]
    fn parallel_assemble_matches_sequential_for_every_worker_count() {
        // 0→{1,2}, 1→{0,2,3}, 2→{1}, 3→{} plus heavy in-degree on 2.
        let offsets = vec![0u32, 2, 5, 6, 6, 8, 10];
        let targets = vec![1, 2, 0, 2, 3, 1, 2, 4, 2, 5];
        let mut peak = PeakTracker::default();
        let seq = assemble(6, offsets.clone(), targets.clone(), 1, &mut peak);
        for workers in [2, 3, 4, 6, 9] {
            let mut peak = PeakTracker::default();
            let par = assemble(6, offsets.clone(), targets.clone(), workers, &mut peak);
            assert_eq!(
                seq.adjacency_checksum(),
                par.adjacency_checksum(),
                "workers={workers}"
            );
            for u in 0..6 {
                assert_eq!(
                    seq.in_neighbors(u),
                    par.in_neighbors(u),
                    "workers={workers}"
                );
            }
        }
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

    #[test]
    fn parallel_assemble_peak_bytes_is_worker_invariant() {
        let offsets = vec![0u32, 2, 5, 6, 6, 8, 10];
        let targets = vec![1, 2, 0, 2, 3, 1, 2, 4, 2, 5];
        let mut peak1 = PeakTracker::default();
        assemble(6, offsets.clone(), targets.clone(), 1, &mut peak1);
        let mut peak6 = PeakTracker::default();
        assemble(6, offsets, targets, 6, &mut peak6);
        assert_eq!(peak1.peak(), peak6.peak());
    }
}
