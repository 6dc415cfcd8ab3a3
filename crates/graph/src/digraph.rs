//! Compressed sparse row (CSR) directed graph.
//!
//! Built once from an edge list, then immutable: every analysis in the
//! workspace is read-only, and CSR gives contiguous neighbor slices with
//! narrow integer indexing overhead. Both out- and in-adjacency are
//! materialized because follower analyses need in-degree (who follows me)
//! as cheaply as out-degree (whom I follow).
//!
//! CSR offsets are `u32` (DESIGN.md §12): the paper's 231M-edge Periscope
//! graph uses about 5 % of their range, at half the resident bytes of
//! `u64` offsets. A graph with more than `u32::MAX` edges is refused at
//! assembly (`build::narrow_offsets`) rather than built at a second width.

use livescope_sim::rng::splitmix64;

use crate::build::{self, PeakTracker};

/// A node index. `u32` bounds graphs at ~4 billion nodes, comfortably above
/// the scaled-down experiments and far smaller in memory than `usize`.
pub type NodeId = u32;

/// O(1) degree lookups without the neighbor slices: both offset arrays,
/// nothing else. This is what hot accounting paths (the replay's
/// per-record follower lookup, the bench's degree statistics) should hold
/// instead of re-deriving degrees from slice lengths.
#[derive(Clone, Copy, Debug)]
pub struct DegreeView<'a> {
    out: &'a [u32],
    inn: &'a [u32],
}

impl DegreeView<'_> {
    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.out.len() - 1
    }

    /// Follow count of `u` (out-degree).
    #[inline]
    pub fn out_degree(&self, u: NodeId) -> usize {
        (self.out[u as usize + 1] - self.out[u as usize]) as usize
    }

    /// Follower count of `u` (in-degree).
    #[inline]
    pub fn in_degree(&self, u: NodeId) -> usize {
        (self.inn[u as usize + 1] - self.inn[u as usize]) as usize
    }

    /// Total degree (in + out), the quantity undirected-style metrics use.
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        self.out_degree(u) + self.in_degree(u)
    }

    /// Largest in-degree (the top celebrity's follower count); 0 for an
    /// empty graph.
    pub fn max_in_degree(&self) -> usize {
        (0..self.node_count() as NodeId)
            .map(|u| self.in_degree(u))
            .max()
            .unwrap_or(0)
    }
}

/// An immutable directed graph in CSR form.
///
/// Edge direction follows the "follow" relation: an edge `u → v` means
/// *u follows v*; `v` notifies its in-neighbors... strictly, notifications
/// flow from `v` to everyone with an edge into `v`.
///
/// Construction surface (the PR-8 redesign): [`DiGraph::from_edges`] for
/// explicit edge lists (counting-sort build), and `DiGraph::generate`
/// (in [`crate::generate`]) for the synthetic social-graph presets.
#[derive(Clone, Debug)]
pub struct DiGraph {
    out_offsets: Vec<u32>,
    out_targets: Vec<NodeId>,
    in_offsets: Vec<u32>,
    in_sources: Vec<NodeId>,
}

impl DiGraph {
    /// Internal assembly entry point — parts must already be consistent.
    pub(crate) fn from_parts(
        node_count: usize,
        out_offsets: Vec<u32>,
        out_targets: Vec<NodeId>,
        in_offsets: Vec<u32>,
        in_sources: Vec<NodeId>,
    ) -> DiGraph {
        debug_assert_eq!(out_offsets.len(), node_count + 1);
        debug_assert_eq!(in_offsets.len(), node_count + 1);
        debug_assert_eq!(out_targets.len(), in_sources.len());
        DiGraph {
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
        }
    }

    /// Builds a graph over `node_count` nodes from an explicit directed
    /// edge list, in `O(V + E)` by counting sort: count per source,
    /// prefix-sum into offsets, scatter targets, then sort + dedup each
    /// (small) segment. Self-loops are dropped (a user cannot follow
    /// themself) and duplicate edges collapse to one.
    ///
    /// The result is independent of the input order of `edges` — see the
    /// property tests — which is the determinism contract that lets edge
    /// lists be produced by any pipeline shape.
    pub fn from_edges(node_count: usize, edges: &[(NodeId, NodeId)]) -> DiGraph {
        assert!(
            node_count <= u32::MAX as usize,
            "too many nodes for u32 ids"
        );
        let mut offsets = vec![0u64; node_count + 1];
        for &(u, v) in edges {
            assert!((u as usize) < node_count, "source out of range");
            assert!((v as usize) < node_count, "target out of range");
            if u != v {
                offsets[u as usize + 1] += 1;
            }
        }
        for i in 0..node_count {
            offsets[i + 1] += offsets[i];
        }
        let mut offsets = build::narrow_offsets(offsets);
        // `offsets[u]` is u's write cursor; the scatter leaves it at the
        // start of `u + 1`'s segment, which the shift puts back.
        let mut targets = vec![0 as NodeId; offsets[node_count] as usize];
        for &(u, v) in edges {
            if u != v {
                let c = &mut offsets[u as usize];
                targets[*c as usize] = v;
                *c += 1;
            }
        }
        build::shift_right(&mut offsets);
        // Sort each segment, dedup in place, compact left.
        let mut write = 0usize;
        let mut deduped = Vec::with_capacity(node_count + 1);
        deduped.push(0u32);
        for u in 0..node_count {
            let (s, e) = (offsets[u] as usize, offsets[u + 1] as usize);
            targets[s..e].sort_unstable();
            let mut prev = None;
            for i in s..e {
                let v = targets[i];
                if prev != Some(v) {
                    targets[write] = v;
                    write += 1;
                    prev = Some(v);
                }
            }
            deduped.push(write as u32);
        }
        targets.truncate(write);
        let mut peak = PeakTracker::default();
        build::assemble(node_count, deduped, targets, &mut peak)
    }

    /// [`DiGraph::from_edges`]. Kept only because `benchmark/` calls it
    /// with `workers = 1`; phase 2 runs on one thread (DESIGN.md §12).
    ///
    /// # Panics
    ///
    /// As [`DiGraph::from_edges`], and if `workers > 1`: the parallel
    /// assembly such a value selected is gone.
    pub fn from_edges_with(
        node_count: usize,
        edges: &[(NodeId, NodeId)],
        workers: usize,
    ) -> DiGraph {
        build::assert_one_worker(workers);
        DiGraph::from_edges(node_count, edges)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Nodes `u` follows.
    pub fn out_neighbors(&self, u: NodeId) -> &[NodeId] {
        let u = u as usize;
        &self.out_targets[self.out_offsets[u] as usize..self.out_offsets[u + 1] as usize]
    }

    /// Nodes following `u` (its followers).
    pub fn in_neighbors(&self, u: NodeId) -> &[NodeId] {
        let u = u as usize;
        &self.in_sources[self.in_offsets[u] as usize..self.in_offsets[u + 1] as usize]
    }

    /// Follow count of `u` (out-degree).
    pub fn out_degree(&self, u: NodeId) -> usize {
        self.out_neighbors(u).len()
    }

    /// Follower count of `u` (in-degree).
    pub fn in_degree(&self, u: NodeId) -> usize {
        self.in_neighbors(u).len()
    }

    /// Total degree (in + out), the quantity undirected-style metrics use.
    pub fn degree(&self, u: NodeId) -> usize {
        self.out_degree(u) + self.in_degree(u)
    }

    /// Degree-only view over both offset arrays (no neighbor data).
    pub fn degrees(&self) -> DegreeView<'_> {
        DegreeView {
            out: &self.out_offsets,
            inn: &self.in_offsets,
        }
    }

    /// Raw out-direction layout: `(offsets, targets)`. Node `u`'s follow
    /// list is `targets[offsets[u] as usize..offsets[u + 1] as usize]`,
    /// sorted. This is the zero-cost path for checksums and serialization
    /// — no per-node `flat_map` iterator state.
    pub fn out_csr(&self) -> (&[u32], &[NodeId]) {
        (&self.out_offsets, &self.out_targets)
    }

    /// Raw in-direction layout: `(offsets, sources)`. Node `u`'s follower
    /// list is `sources[offsets[u] as usize..offsets[u + 1] as usize]`,
    /// sorted.
    pub fn in_csr(&self) -> (&[u32], &[NodeId]) {
        (&self.in_offsets, &self.in_sources)
    }

    /// Iterates all edges as `(source, target)` in CSR (sorted) order.
    /// Checksum/serialization paths should prefer [`DiGraph::out_csr`] —
    /// this adapter exists for call sites that genuinely want one tuple
    /// at a time.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.node_count() as NodeId)
            .flat_map(move |u| self.out_neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// True if the edge `u → v` exists (binary search; neighbor lists are
    /// sorted by construction).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// Bytes of heap + inline storage held by the graph: both offset
    /// arrays plus both adjacency arrays. This is
    /// the number replay benches must account for instead of footnoting
    /// the graph as untracked input.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.out_offsets.capacity() + self.in_offsets.capacity())
                * std::mem::size_of::<u32>()
            + (self.out_targets.capacity() + self.in_sources.capacity())
                * std::mem::size_of::<NodeId>()
    }

    /// Order-sensitive digest of the full adjacency layout (offsets and
    /// both directions, hashed node by node). Two graphs with equal
    /// checksums are byte-identical CSR layouts for all practical
    /// purposes; the regression suite pins generator outputs with this.
    pub fn adjacency_checksum(&self) -> u64 {
        let n = self.node_count();
        let mut acc = splitmix64(n as u64 ^ (self.edge_count() as u64).rotate_left(32));
        for u in 0..n as NodeId {
            acc = splitmix64(acc ^ u as u64);
            for &v in self.out_neighbors(u) {
                acc = splitmix64(acc.wrapping_add(v as u64 + 1));
            }
            for &s in self.in_neighbors(u) {
                acc = splitmix64(acc ^ (s as u64).rotate_left(17));
            }
        }
        acc
    }

    /// Digest of the degree sequence alone (both directions) — coarser
    /// than [`DiGraph::adjacency_checksum`], pinned separately so a
    /// degree-preserving regression (rewiring bugs) is distinguishable
    /// from a degree-sequence regression (sampler bugs).
    pub fn degree_checksum(&self) -> u64 {
        let d = self.degrees();
        let mut acc = 0x5eedu64;
        for u in 0..self.node_count() as NodeId {
            acc = splitmix64(
                acc ^ (d.out_degree(u) as u64) ^ (d.in_degree(u) as u64).rotate_left(24),
            );
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> DiGraph {
        // 0→1, 1→2, 2→0 (cycle) and 3→0 (tail).
        DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (3, 0)])
    }

    #[test]
    #[should_panic(expected = "workers = 2: the parallel CSR assembly was removed")]
    fn from_edges_with_refuses_more_than_one_worker() {
        DiGraph::from_edges_with(4, &[(0, 1)], 2);
    }

    #[test]
    fn counts_are_correct() {
        let g = triangle_plus_tail();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn adjacency_is_correct_both_ways() {
        let g = triangle_plus_tail();
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.out_neighbors(3), &[0]);
        assert_eq!(g.in_neighbors(0), &[2, 3]);
        assert_eq!(g.in_neighbors(3), &[] as &[NodeId]);
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.in_degree(0), 2);
        assert_eq!(g.degree(0), 3);
    }

    #[test]
    fn degree_view_matches_slice_lengths() {
        let g = triangle_plus_tail();
        let d = g.degrees();
        assert_eq!(d.node_count(), 4);
        for u in 0..4 {
            assert_eq!(d.out_degree(u), g.out_degree(u));
            assert_eq!(d.in_degree(u), g.in_degree(u));
            assert_eq!(d.degree(u), g.degree(u));
        }
        assert_eq!(d.max_in_degree(), 2);
    }

    #[test]
    fn has_edge_works() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert!(!g.has_edge(3, 2));
    }

    #[test]
    fn duplicates_and_self_loops_are_dropped() {
        let g = DiGraph::from_edges(3, &[(0, 1), (0, 1), (1, 1), (2, 0)]);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.out_neighbors(0), &[1]);
        assert_eq!(g.out_degree(1), 0);
    }

    #[test]
    fn edges_iterator_yields_all_edges() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 0), (3, 0)]);
    }

    #[test]
    fn raw_views_cover_the_same_layout() {
        let g = triangle_plus_tail();
        let (off, targets) = g.out_csr();
        assert_eq!(off, &[0, 1, 2, 3, 4]);
        let mut rebuilt = Vec::new();
        for u in 0..g.node_count() {
            for &v in &targets[off[u] as usize..off[u + 1] as usize] {
                rebuilt.push((u as NodeId, v));
            }
        }
        assert_eq!(rebuilt, g.edges().collect::<Vec<_>>());
        let (in_off, in_s) = g.in_csr();
        assert_eq!(&in_s[in_off[0] as usize..in_off[1] as usize], &[2, 3]);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = DiGraph::from_edges(0, &[]);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        let g2 = DiGraph::from_edges(5, &[]);
        assert_eq!(g2.node_count(), 5);
        assert_eq!(g2.out_neighbors(4), &[] as &[NodeId]);
    }

    #[test]
    fn out_neighbors_are_sorted() {
        let g = DiGraph::from_edges(5, &[(0, 4), (0, 2), (0, 1), (0, 3)]);
        assert_eq!(g.out_neighbors(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn resident_bytes_tracks_arrays() {
        let g = triangle_plus_tail();
        // 2 offset arrays × 5 u32 entries + 2 adjacency arrays × 4 u32,
        // every array allocated at exactly its length.
        let arrays = 2 * 5 * 4 + 2 * 4 * 4;
        assert_eq!(g.resident_bytes(), std::mem::size_of::<DiGraph>() + arrays);
    }

    #[test]
    fn checksums_are_layout_sensitive() {
        let g1 = triangle_plus_tail();
        let g2 = DiGraph::from_edges(4, &[(3, 0), (2, 0), (1, 2), (0, 1)]);
        assert_eq!(g1.adjacency_checksum(), g2.adjacency_checksum());
        assert_eq!(g1.degree_checksum(), g2.degree_checksum());
        let g3 = DiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (3, 1)]);
        assert_ne!(g1.adjacency_checksum(), g3.adjacency_checksum());
    }
}
