//! Synthetic social-graph generators behind [`DiGraph::generate`].
//!
//! Three named presets mirror the three rows of Table 2. The structural
//! contrasts the paper highlights — Periscope resembling Twitter
//! (asymmetric one-to-many follows, negative assortativity) and not
//! Facebook (mutual friendships, positive assortativity, higher
//! clustering) — fall out of two mechanisms:
//!
//! 1. **Directed preferential attachment** ([`GraphKind::Follow`]):
//!    newcomers follow already-popular accounts, creating celebrity hubs
//!    whose followers are mostly low-degree — that is exactly degree
//!    *dis*assortativity.
//! 2. **Symmetric attachment + triadic closure + Xulvi-Brunet–Sokolov
//!    assortative rewiring** ([`GraphKind::Friendship`]):
//!    friends-of-friends edges raise clustering, and XBS double-edge swaps
//!    push degree correlation positive while preserving every node's
//!    degree.
//!
//! ## Two-phase build (DESIGN.md §12)
//!
//! The follow generator never materializes the preferential-attachment
//! urn. The classic urn holds one entry per node plus one per received
//! follow — at paper scale (12M users, 231M edges) that is another
//! edge-sized array rebuilt by `push` — but its layout is fully determined
//! by the per-node out-degree prefix sum: during node `n`'s turn the urn
//! is `[0]` followed, for each earlier node `m`, by `m`'s targets in
//! insertion order and then `m` itself. Phase 1 therefore streams RNG
//! decisions against that *implicit* urn: one `gen_range` over the same
//! length, then a lookup of the node whose segment holds that position —
//! a jump through a `u32` guide keyed on urn position (one entry per 32
//! positions, appended as the prefix sum grows, dropped when phase 1
//! ends) and a one- or two-entry walk along the prefix sum. Same draw
//! sequence, same resulting node; only the flat target array and the
//! prefix sum are emitted. Phase 2 (`build::assemble`) counting-sorts
//! the in-direction in O(V+E).
//!
//! Follow rewiring swaps targets in that same flat array, in slot order
//! (the RNG's edge-index space): a swap is two stores, membership is a
//! linear scan of one node's segment, `build::CsrScratch` maps a slot to
//! its source node, and every segment is sorted once when the loop ends.
//! There is no sorted mirror of the edges and no `BTreeSet`.
//!
//! Outputs are bit-identical to the retired urn/`BTreeSet` implementation
//! for every `(spec, seed)` pair — pinned by `tests/csr_regression.rs`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use livescope_sim::dist;
use livescope_telemetry::profile::Section;
use livescope_telemetry::Telemetry;

use crate::build::{self, CsrScratch, GraphBuildStats, PeakTracker};
use crate::digraph::{DiGraph, NodeId};

/// Parameters for the directed (follow) generator.
#[derive(Clone, Copy, Debug)]
pub struct FollowParams {
    /// Mean number of accounts a new user follows.
    pub mean_follows: f64,
    /// Fraction of follow targets chosen preferentially by in-degree
    /// (the rest are uniform). Higher values → heavier celebrity tail.
    pub preferential_bias: f64,
    /// Probability that a follow target is chosen as a followee of an
    /// existing followee (triadic closure): "I follow whom my friends
    /// follow". Lifts the clustering coefficient toward Table 2's values.
    pub triadic_closure: f64,
    /// Disassortative target-swap passes, as a multiple of the edge count.
    /// Pure preferential attachment develops a densely interlinked old-node
    /// core whose hub-to-hub edges push Pearson assortativity *positive*;
    /// real follow graphs are negative (Table 2: Periscope −0.057, Twitter
    /// −0.19), and this degree-preserving pass restores that.
    pub disassortative_passes: f64,
}

/// Parameters for the symmetric (friendship) generator.
#[derive(Clone, Copy, Debug)]
pub struct FriendshipParams {
    /// Mutual friendships each newcomer creates.
    pub mean_friends: f64,
    /// Probability a new friendship closes a triangle (friend-of-friend)
    /// instead of attaching preferentially.
    pub triadic_closure: f64,
    /// XBS assortative-rewiring passes, as a multiple of the edge count.
    pub rewire_passes: f64,
    /// Extra triangle-closing edges added *after* rewiring, as a fraction
    /// of the edge count. Rewiring breaks triangles while it sorts degrees;
    /// this pass restores Facebook-grade clustering without disturbing the
    /// assortative degree pairing much (it connects two neighbors of one
    /// node, whose degrees are already correlated).
    pub closure_extra: f64,
    /// Community size (0 disables). Real friendship graphs are community-
    /// structured — schools, workplaces — and that, more than wedge
    /// closing, is what keeps clustering high at Facebook-scale degrees.
    pub community_size: usize,
    /// Probability a new friendship stays inside the node's community.
    pub community_bias: f64,
}

/// Which generator a [`GraphSpec`] runs.
#[derive(Clone, Copy, Debug)]
pub enum GraphKind {
    /// Directed preferential-attachment follow graph (Periscope, Twitter).
    Follow(FollowParams),
    /// Symmetric friendship graph (Facebook).
    Friendship(FriendshipParams),
}

/// One synthetic-graph recipe: node count plus generator parameters.
///
/// The presets carry each Table 2 row's calibrated parameters together
/// with a default population, and `with_nodes` rescales:
///
/// ```
/// use livescope_graph::{DiGraph, GraphSpec};
/// let g = DiGraph::generate(&GraphSpec::twitter().with_nodes(5_000), 42);
/// assert_eq!(g.node_count(), 5_000);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct GraphSpec {
    /// Number of users.
    pub nodes: usize,
    /// Generator family and its parameters.
    pub kind: GraphKind,
}

impl GraphSpec {
    /// Periscope-like preset: denser than Twitter (Table 2 shows avg
    /// degree 38.6 vs Twitter's 14.0), strongly preferential, mildly
    /// disassortative (−0.057).
    pub fn periscope() -> GraphSpec {
        GraphSpec {
            nodes: 20_000,
            kind: GraphKind::Follow(FollowParams {
                mean_follows: 19.0, // total avg degree ≈ 2×19 ≈ 38.6
                preferential_bias: 0.75,
                triadic_closure: 0.28,
                disassortative_passes: 0.6,
            }),
        }
    }

    /// Twitter-like preset: sparser, strongly disassortative (−0.19).
    pub fn twitter() -> GraphSpec {
        GraphSpec {
            nodes: 20_000,
            kind: GraphKind::Follow(FollowParams {
                mean_follows: 7.0,
                preferential_bias: 0.85,
                triadic_closure: 0.50,
                disassortative_passes: 3.0,
            }),
        }
    }

    /// Facebook-like preset (Table 2 row 2: high clustering, positive
    /// assortativity, higher average degree than Twitter).
    pub fn facebook() -> GraphSpec {
        GraphSpec {
            nodes: 10_000,
            kind: GraphKind::Friendship(FriendshipParams {
                mean_friends: 25.0,
                triadic_closure: 0.5,
                rewire_passes: 0.1,
                closure_extra: 0.35,
                community_size: 110,
                community_bias: 0.85,
            }),
        }
    }

    /// Same recipe over a different population.
    pub fn with_nodes(mut self, nodes: usize) -> GraphSpec {
        self.nodes = nodes;
        self
    }
}

/// The three build-phase profile sections
/// (`handler.graph.{decide,rewire,assemble}_ns`). Inert on a disabled
/// telemetry handle; on a recording one, one sample per build phase
/// lands on it so `profile_top5` shows where a build spends its wall
/// clock.
#[derive(Clone, Debug, Default)]
pub struct BuildProfile {
    pub(crate) decide: Section,
    pub(crate) rewire: Section,
    pub(crate) assemble: Section,
}

impl BuildProfile {
    /// Registers the three section histograms on `telemetry`.
    pub fn new(telemetry: &Telemetry) -> BuildProfile {
        BuildProfile {
            decide: Section::new(telemetry, "graph", "decide"),
            rewire: Section::new(telemetry, "graph", "rewire"),
            assemble: Section::new(telemetry, "graph", "assemble"),
        }
    }
}

/// Execution options for [`DiGraph::generate_with`]. They never change
/// the emitted graph: `profile` sections only time the phases, on a
/// recording telemetry handle.
#[derive(Clone, Debug, Default)]
pub struct BuildOptions {
    /// Build-phase timing sections (default: inert).
    pub profile: BuildProfile,
}

impl BuildOptions {
    /// No profiling.
    pub fn new() -> BuildOptions {
        BuildOptions::default()
    }

    /// Returns `self` unchanged. Kept only because `benchmark/` calls it
    /// with 1; phase 2 runs on one thread (DESIGN.md §12).
    ///
    /// # Panics
    ///
    /// If `workers > 1`: the parallel assembly such a value selected is
    /// gone.
    pub fn with_workers(self, workers: usize) -> BuildOptions {
        build::assert_one_worker(workers);
        self
    }

    /// Attaches build-phase profile sections.
    pub fn with_profile(mut self, profile: BuildProfile) -> BuildOptions {
        self.profile = profile;
        self
    }
}

impl DiGraph {
    /// Generates a synthetic social graph from `spec`, deterministically
    /// in `seed`.
    pub fn generate(spec: &GraphSpec, seed: u64) -> DiGraph {
        DiGraph::generate_with_stats(spec, seed).0
    }

    /// As [`DiGraph::generate`], also returning build statistics (edge
    /// totals, deterministic peak build-buffer bytes, swaps applied) for
    /// bench accounting.
    pub fn generate_with_stats(spec: &GraphSpec, seed: u64) -> (DiGraph, GraphBuildStats) {
        DiGraph::generate_with(spec, seed, &BuildOptions::default())
    }

    /// As [`DiGraph::generate_with_stats`], with explicit execution
    /// options (build-phase profiling). The graph and every stat are
    /// identical for all options — only wall time varies.
    pub fn generate_with(
        spec: &GraphSpec,
        seed: u64,
        options: &BuildOptions,
    ) -> (DiGraph, GraphBuildStats) {
        assert!(
            spec.nodes <= u32::MAX as usize,
            "too many nodes for u32 ids"
        );
        match spec.kind {
            GraphKind::Follow(ref p) => build_follow(spec.nodes, p, seed, options),
            GraphKind::Friendship(ref p) => build_friendship(spec.nodes, p, seed, options),
        }
    }
}

/// Urn positions per guide entry (`1 << GUIDE_SHIFT`). A bucket of 32
/// positions spans 1–2 nodes at Periscope's ~20 positions per node, so
/// the walk after the jump stays on one or two adjacent `estart` entries,
/// and the guide is `(E + V) / 32` `u32`s — an eighth of a byte per urn
/// position. Build time is flat from 3 to 7 at 300k and 1.2M nodes
/// (DESIGN.md §12); 5 is the middle of that range.
const GUIDE_SHIFT: u32 = 5;

/// Appends the guide entries that node `node`'s urn segment — it ends
/// just before urn key `seg_end` — brings into range: `guide[k]` is the
/// first node whose segment ends past key `k << GUIDE_SHIFT`. Called once
/// per node, right after its `estart` entry is pushed.
#[inline]
fn guide_extend(guide: &mut Vec<NodeId>, node: NodeId, seg_end: u64) {
    while ((guide.len() as u64) << GUIDE_SHIFT) < seg_end {
        guide.push(node);
    }
}

/// The node at position `idx` of the implicit urn: `[0]` ++ for each
/// `m ≥ 1` (targets of `m`, then `m`), so node `m`'s segment covers urn
/// keys (`idx - 1`) from `estart[m] + m - 1` up to, not including,
/// `estart[m + 1] + m`, where `estart[m]` is the out-edge count of nodes
/// below `m`. `idx` must lie inside the urn built so far.
///
/// This runs once per preferential draw, ~E times per build, against a
/// prefix-sum array too large to stay cached: the guide jumps to the
/// first node that can own the key and the walk finishes on adjacent
/// entries — the node a lower-bound search over all of `estart` would
/// return, for every key (`tests::urn_pick_oracle`).
#[inline]
fn urn_pick(idx: usize, estart: &[u64], targets: &[NodeId], guide: &[NodeId]) -> NodeId {
    if idx == 0 {
        return 0;
    }
    let key = (idx - 1) as u64;
    // Smallest m whose segment end (estart[m+1] + m) exceeds key: no
    // node before the hint qualifies, and the last node pushed does.
    let mut m = guide[(key >> GUIDE_SHIFT) as usize] as usize;
    while estart[m + 1] + m as u64 <= key {
        m += 1;
    }
    let off = key - (estart[m] + (m - 1) as u64);
    if off < estart[m + 1] - estart[m] {
        targets[(estart[m] + off) as usize]
    } else {
        m as NodeId
    }
}

/// Sorts every node's segment of the flat target array.
fn sort_segments(estart: &[u64], targets: &mut [NodeId]) {
    for seg in estart.windows(2) {
        targets[seg[0] as usize..seg[1] as usize].sort_unstable();
    }
}

/// Directed preferential-attachment build (phase 1 streams the degree
/// sequence + endpoints, phase 2 assembles CSR). RNG-draw-for-draw
/// compatible with the retired urn implementation.
fn build_follow(
    nodes: usize,
    p: &FollowParams,
    seed: u64,
    options: &BuildOptions,
) -> (DiGraph, GraphBuildStats) {
    assert!(nodes >= 2, "need at least two users");
    assert!(
        (0.0..=1.0).contains(&p.preferential_bias),
        "preferential_bias must be a probability"
    );
    assert!(
        (0.0..=1.0).contains(&p.triadic_closure),
        "triadic_closure must be a probability"
    );
    assert!(!p.mean_follows.is_nan(), "mean_follows must not be NaN");
    assert_pass_multiple("disassortative_passes", p.disassortative_passes);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut peak = PeakTracker::default();
    let (estart, mut targets) = options
        .profile
        .decide
        .time(|| follow_decide(nodes, p, &mut rng, &mut peak));
    let swaps_applied = options
        .profile
        .rewire
        .time(|| follow_rewire(nodes, p, &estart, &mut targets, &mut rng, &mut peak));

    let g = options.profile.assemble.time(|| {
        let estart = build::narrow_offsets(estart);
        build::assemble(nodes, estart, targets, &mut peak)
    });
    let stats = GraphBuildStats {
        nodes,
        edges: g.edge_count(),
        peak_bytes: peak.peak(),
        swaps_applied,
    };
    (g, stats)
}

// The follow build's two RNG phases are functions, not closure bodies,
// so their hot loops see `rng` as a `&mut` argument the optimizer may
// keep in registers rather than a capture it must reload after every call.

/// Phase 1 of the follow build: the RNG decision stream against the
/// implicit urn, ending with every segment of the flat target array
/// sorted. Returns `(estart, targets)`.
fn follow_decide(
    nodes: usize,
    p: &FollowParams,
    rng: &mut SmallRng,
    peak: &mut PeakTracker,
) -> (Vec<u64>, Vec<NodeId>) {
    // Phase 1: stream RNG decisions into a source-grouped flat target
    // array. `estart[m]` = out-edges of nodes < m (so node m's targets sit
    // at `targets[estart[m]..estart[m+1]]`, insertion-ordered for now —
    // triadic-closure draws index into that order).
    let mut estart: Vec<u64> = vec![0, 0];
    let mut targets: Vec<NodeId> = Vec::new();
    let mut guide: Vec<NodeId> = Vec::new();
    let mut chosen: Vec<NodeId> = Vec::new();
    // Sorted mirror of `chosen`, reused across nodes: dedup checks are a
    // binary search instead of a linear scan of the insertion-order list
    // (which rewinds the whole list once per accepted edge — quadratic in
    // the per-node follow count, and Periscope means ~19 follows).
    let mut chosen_sorted: Vec<NodeId> = Vec::new();
    for node in 1..nodes as NodeId {
        let follows = dist::geometric(rng, p.mean_follows).min(node as u64) as usize;
        chosen.clear();
        chosen_sorted.clear();
        // Bounded retries: duplicates are common when `node` is small.
        let mut attempts = 0;
        while chosen.len() < follows && attempts < follows * 20 {
            attempts += 1;
            // Triadic closure first: follow a followee of someone I
            // already follow ("friend-of-friend"), when I have followees
            // with followees of their own.
            let closed = if !chosen.is_empty() && rng.gen_bool(p.triadic_closure) {
                let via = chosen[rng.gen_range(0..chosen.len())];
                let theirs =
                    &targets[estart[via as usize] as usize..estart[via as usize + 1] as usize];
                if theirs.is_empty() {
                    None
                } else {
                    Some(theirs[rng.gen_range(0..theirs.len())])
                }
            } else {
                None
            };
            let target = closed.unwrap_or_else(|| {
                if rng.gen_bool(p.preferential_bias) {
                    let urn_len = estart[node as usize] as usize + node as usize;
                    urn_pick(rng.gen_range(0..urn_len), &estart, &targets, &guide)
                } else {
                    rng.gen_range(0..node)
                }
            });
            if target != node && sorted_insert(&mut chosen_sorted, target) {
                chosen.push(target);
            }
        }
        targets.extend_from_slice(&chosen);
        let out_end = estart[node as usize] + chosen.len() as u64;
        estart.push(out_end);
        guide_extend(&mut guide, node, out_end + node as u64);
        if node % 4096 == 0 {
            peak.observe(
                estart.capacity() * 8
                    + (targets.capacity()
                        + guide.capacity()
                        + chosen.capacity()
                        + chosen_sorted.capacity())
                        * 4,
            );
        }
    }
    // The urn is finished: free its guide before the later phases' peaks.
    drop(guide);
    drop(chosen);
    drop(chosen_sorted);

    // Segment sort so the flat array matches CSR (and rewiring's edge
    // indexing, which walks edges in CSR order).
    sort_segments(&estart, &mut targets);
    (estart, targets)
}

/// Disassortative target swaps in slot order over the flat target array,
/// leaving every segment sorted again. Returns the swaps applied.
fn follow_rewire(
    nodes: usize,
    p: &FollowParams,
    estart: &Vec<u64>,
    targets: &mut Vec<NodeId>,
    rng: &mut SmallRng,
    peak: &mut PeakTracker,
) -> u64 {
    let edge_total = targets.len();
    let swaps = (edge_total as f64 * p.disassortative_passes) as usize;
    let mut swaps_applied = 0u64;
    if swaps > 0 && edge_total >= 2 {
        // Interim total degrees (out + in) drive the swap objective.
        let mut degrees: Vec<u64> = vec![0; nodes];
        for m in 0..nodes {
            degrees[m] += estart[m + 1] - estart[m];
        }
        for &v in targets.iter() {
            degrees[v as usize] += 1;
        }
        // `targets[i]` is the current target of flat edge slot i. Slot
        // order is the RNG's edge-index space and never moves (swaps
        // preserve every out-degree), so a swap is two stores; segments
        // lose their sort order meanwhile and are re-sorted once below.
        // Membership is a linear scan of one segment: out-degrees are
        // geometric (size-biased mean ~2 × `mean_follows`, maximum
        // ~`mean_follows · ln V`), so that is the few cache lines the
        // `targets[i]` read just pulled in.
        let scratch = CsrScratch::new(estart);
        let segment = |u: NodeId| estart[u as usize] as usize..estart[u as usize + 1] as usize;
        peak.observe(
            estart.capacity() * 8
                + targets.capacity() * 4
                + scratch.heap_bytes()
                + degrees.capacity() * 8,
        );
        for _ in 0..swaps {
            let i = rng.gen_range(0..edge_total);
            let j = rng.gen_range(0..edge_total);
            if i == j {
                continue;
            }
            let (a, b) = (scratch.source_of(i), targets[i]);
            let (c, d) = (scratch.source_of(j), targets[j]);
            if a == d || c == b {
                continue; // swap would create a self-loop
            }
            let current = degrees[a as usize] * degrees[b as usize]
                + degrees[c as usize] * degrees[d as usize];
            let swapped = degrees[a as usize] * degrees[d as usize]
                + degrees[c as usize] * degrees[b as usize];
            if swapped >= current {
                continue; // not disassortative
            }
            if targets[segment(a)].contains(&d) || targets[segment(c)].contains(&b) {
                continue; // swap would duplicate an edge
            }
            targets[i] = d;
            targets[j] = b;
            swaps_applied += 1;
        }
        sort_segments(estart, targets);
    }
    swaps_applied
}

/// Rejects a multiple-of-the-edge-count parameter that `as usize` would
/// turn into something else: `+inf` saturates to `usize::MAX` loop
/// iterations, a negative value or NaN silently becomes 0.
fn assert_pass_multiple(name: &str, value: f64) {
    assert!(
        value.is_finite() && value >= 0.0,
        "{name} must be finite and non-negative"
    );
}

/// Inserts `v` into a sorted list; false if already present.
fn sorted_insert(list: &mut Vec<NodeId>, v: NodeId) -> bool {
    match list.binary_search(&v) {
        Err(i) => {
            list.insert(i, v);
            true
        }
        Ok(_) => false,
    }
}

/// Removes `v` from a sorted list (must be present).
fn sorted_remove(list: &mut Vec<NodeId>, v: NodeId) {
    let i = list
        .binary_search(&v)
        .expect("sorted_remove: edge must be present");
    list.remove(i);
}

/// Symmetric friendship build. The explicit urn survives here — it grows
/// *mid-loop* (every accepted friendship pushes both endpoints before the
/// next draw) so no closed-form prefix mapping applies, and at friendship
/// scale (10⁴ nodes, not 10⁷) it is cheap. What the redesign removes is
/// the `BTreeSet` edge mirror: membership and updates run on per-node
/// sorted neighbor lists instead.
fn build_friendship(
    nodes: usize,
    p: &FriendshipParams,
    seed: u64,
    options: &BuildOptions,
) -> (DiGraph, GraphBuildStats) {
    assert!(nodes >= 3, "need at least three users");
    assert!(!p.mean_friends.is_nan(), "mean_friends must not be NaN");
    assert_pass_multiple("rewire_passes", p.rewire_passes);
    assert_pass_multiple("closure_extra", p.closure_extra);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut peak = PeakTracker::default();
    let (mut edges, adjacency, mut sorted_adj, urn) = options.profile.decide.time(|| {
        // Undirected edges as ordered pairs (min, max), in acceptance order —
        // rewiring's RNG indexes into this order.
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        // Insertion-order adjacency: triadic-closure draws index into it.
        let mut adjacency: Vec<Vec<NodeId>> = vec![Vec::new(); nodes];
        // Sorted adjacency: the membership structure replacing the edge set.
        let mut sorted_adj: Vec<Vec<NodeId>> = vec![Vec::new(); nodes];
        let mut urn: Vec<NodeId> = vec![0, 1];
        let push_edge = |u: NodeId,
                         v: NodeId,
                         edges: &mut Vec<(NodeId, NodeId)>,
                         adjacency: &mut [Vec<NodeId>],
                         sorted_adj: &mut [Vec<NodeId>],
                         urn: &mut Vec<NodeId>|
         -> bool {
            if u == v || !sorted_insert(&mut sorted_adj[u as usize], v) {
                return false;
            }
            sorted_insert(&mut sorted_adj[v as usize], u);
            edges.push((u.min(v), u.max(v)));
            adjacency[u as usize].push(v);
            adjacency[v as usize].push(u);
            urn.push(u);
            urn.push(v);
            true
        };
        // Seed friendship between the first two users.
        push_edge(0, 1, &mut edges, &mut adjacency, &mut sorted_adj, &mut urn);
        for node in 2..nodes as NodeId {
            let friends = dist::geometric(&mut rng, p.mean_friends).min(node as u64) as usize;
            let mut made = 0;
            let mut attempts = 0;
            while made < friends && attempts < friends * 20 {
                attempts += 1;
                let target = if made > 0 && rng.gen_bool(p.triadic_closure) {
                    // Friend of an existing friend: pick one of my neighbors,
                    // then one of theirs.
                    let my = &adjacency[node as usize];
                    let via = my[rng.gen_range(0..my.len())];
                    let theirs = &adjacency[via as usize];
                    theirs[rng.gen_range(0..theirs.len())]
                } else if p.community_size > 0 && rng.gen_bool(p.community_bias) {
                    // A peer from my own community block.
                    let community = node as usize / p.community_size;
                    let lo = (community * p.community_size) as NodeId;
                    let hi = node.min(lo + p.community_size as NodeId);
                    if hi > lo {
                        rng.gen_range(lo..hi)
                    } else {
                        urn[rng.gen_range(0..urn.len())]
                    }
                } else {
                    urn[rng.gen_range(0..urn.len())]
                };
                if target < node
                    && push_edge(
                        node,
                        target,
                        &mut edges,
                        &mut adjacency,
                        &mut sorted_adj,
                        &mut urn,
                    )
                {
                    made += 1;
                }
            }
            urn.push(node);
            if node % 1024 == 0 {
                peak.observe(
                    urn.capacity() * 4
                        + edges.capacity() * 8
                        + adj_heap_bytes(&adjacency)
                        + adj_heap_bytes(&sorted_adj),
                );
            }
        }
        (edges, adjacency, sorted_adj, urn)
    });
    let swaps_applied = options.profile.rewire.time(|| {
        let degrees: Vec<usize> = adjacency.iter().map(Vec::len).collect();
        let swaps = (edges.len() as f64 * p.rewire_passes) as usize;
        let swaps_applied =
            rewire_assortative(&mut edges, &mut sorted_adj, &degrees, swaps, &mut rng);
        // Post-rewiring triadic closure: rewiring sorts degrees but shreds
        // triangles; close wedges on the rewired graph to restore clustering.
        let extra = (edges.len() as f64 * p.closure_extra) as usize;
        if extra > 0 {
            // Static snapshot adjacency (not updated by the additions below —
            // the wedge draws index into the rewired graph only).
            let mut adjacency: Vec<Vec<NodeId>> = vec![Vec::new(); nodes];
            for &(u, v) in &edges {
                adjacency[u as usize].push(v);
                adjacency[v as usize].push(u);
            }
            let mut added = 0;
            let mut attempts = 0;
            while added < extra && attempts < extra * 20 {
                attempts += 1;
                let center = rng.gen_range(0..nodes);
                let neigh = &adjacency[center];
                if neigh.len() < 2 {
                    continue;
                }
                let x = neigh[rng.gen_range(0..neigh.len())];
                let y = neigh[rng.gen_range(0..neigh.len())];
                if x == y || !sorted_insert(&mut sorted_adj[x as usize], y) {
                    continue;
                }
                sorted_insert(&mut sorted_adj[y as usize], x);
                edges.push((x.min(y), x.max(y)));
                added += 1;
            }
            peak.observe(
                urn.capacity() * 4
                    + edges.capacity() * 8
                    + adj_heap_bytes(&adjacency)
                    + adj_heap_bytes(&sorted_adj),
            );
        }
        swaps_applied
    });
    // Final assembly: `sorted_adj` already *is* the symmetric out-CSR,
    // segment-sorted; flatten and counting-sort the in-direction.
    let g = options.profile.assemble.time(|| {
        let mut offsets: Vec<u64> = Vec::with_capacity(nodes + 1);
        offsets.push(0);
        let mut total = 0u64;
        for list in &sorted_adj {
            total += list.len() as u64;
            offsets.push(total);
        }
        let mut flat: Vec<NodeId> = Vec::with_capacity(total as usize);
        for list in &sorted_adj {
            flat.extend_from_slice(list);
        }
        let offsets = build::narrow_offsets(offsets);
        build::assemble(nodes, offsets, flat, &mut peak)
    });
    let stats = GraphBuildStats {
        nodes,
        edges: g.edge_count(),
        peak_bytes: peak.peak(),
        swaps_applied,
    };
    (g, stats)
}

/// Heap bytes across a Vec-of-Vec adjacency.
fn adj_heap_bytes(adj: &[Vec<NodeId>]) -> usize {
    std::mem::size_of_val(adj) + adj.iter().map(|v| v.capacity() * 4).sum::<usize>()
}

/// Xulvi-Brunet–Sokolov assortative rewiring on an undirected edge list.
///
/// Repeatedly takes two random edges, orders their four endpoints by
/// degree, and reconnects highest↔second-highest and third↔fourth. Degree
/// sequence is invariant; degree-degree correlation rises monotonically in
/// expectation. Swaps that would create self-loops or duplicate edges are
/// skipped. Membership runs on the sorted per-node adjacency lists, which
/// are kept in sync with `edges`. Returns the number of swaps applied.
fn rewire_assortative(
    edges: &mut [(NodeId, NodeId)],
    sorted_adj: &mut [Vec<NodeId>],
    degrees: &[usize],
    swaps: usize,
    rng: &mut SmallRng,
) -> u64 {
    if edges.len() < 2 {
        return 0;
    }
    let mut applied = 0u64;
    for _ in 0..swaps {
        let i = rng.gen_range(0..edges.len());
        let j = rng.gen_range(0..edges.len());
        if i == j {
            continue;
        }
        let (a, b) = edges[i];
        let (c, d) = edges[j];
        let mut nodes = [a, b, c, d];
        // Four distinct endpoints required.
        if nodes[0] == nodes[2]
            || nodes[0] == nodes[3]
            || nodes[1] == nodes[2]
            || nodes[1] == nodes[3]
        {
            continue;
        }
        // Stable sort: ties keep [a, b, c, d] order, which the retired
        // implementation relied on — do not switch to sort_unstable.
        nodes.sort_by_key(|&n| std::cmp::Reverse(degrees[n as usize]));
        let e1 = (nodes[0].min(nodes[1]), nodes[0].max(nodes[1]));
        let e2 = (nodes[2].min(nodes[3]), nodes[2].max(nodes[3]));
        if e1 == edges[i] && e2 == edges[j] || e1 == edges[j] && e2 == edges[i] {
            continue; // already assortative
        }
        if sorted_adj[e1.0 as usize].binary_search(&e1.1).is_ok()
            || sorted_adj[e2.0 as usize].binary_search(&e2.1).is_ok()
        {
            continue;
        }
        for (u, v) in [edges[i], edges[j]] {
            sorted_remove(&mut sorted_adj[u as usize], v);
            sorted_remove(&mut sorted_adj[v as usize], u);
        }
        for (u, v) in [e1, e2] {
            sorted_insert(&mut sorted_adj[u as usize], v);
            sorted_insert(&mut sorted_adj[v as usize], u);
        }
        edges[i] = e1;
        edges[j] = e2;
        applied += 1;
    }
    applied
}

#[cfg(test)]
mod tests {
    use super::*;

    fn follow_spec(nodes: usize, p: FollowParams) -> GraphSpec {
        GraphSpec {
            nodes,
            kind: GraphKind::Follow(p),
        }
    }

    fn friendship_spec(nodes: usize, p: FriendshipParams) -> GraphSpec {
        GraphSpec {
            nodes,
            kind: GraphKind::Friendship(p),
        }
    }

    #[test]
    fn follow_graph_has_expected_scale() {
        let spec = follow_spec(
            2_000,
            FollowParams {
                mean_follows: 10.0,
                preferential_bias: 0.75,
                triadic_closure: 0.2,
                disassortative_passes: 1.0,
            },
        );
        let g = DiGraph::generate(&spec, 1);
        assert_eq!(g.node_count(), 2_000);
        let avg_out = g.edge_count() as f64 / g.node_count() as f64;
        assert!(
            (6.0..14.0).contains(&avg_out),
            "avg out-degree {avg_out} far from mean_follows"
        );
    }

    #[test]
    fn follow_graph_is_deterministic_per_seed() {
        let spec = GraphSpec::twitter().with_nodes(500);
        let g1 = DiGraph::generate(&spec, 7);
        let g2 = DiGraph::generate(&spec, 7);
        let g3 = DiGraph::generate(&spec, 8);
        assert_eq!(
            g1.edges().collect::<Vec<_>>(),
            g2.edges().collect::<Vec<_>>()
        );
        assert_ne!(
            g1.edges().collect::<Vec<_>>(),
            g3.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn follow_graph_grows_celebrity_hubs() {
        let spec = follow_spec(
            3_000,
            FollowParams {
                mean_follows: 8.0,
                preferential_bias: 0.9,
                triadic_closure: 0.2,
                disassortative_passes: 1.0,
            },
        );
        let g = DiGraph::generate(&spec, 3);
        let max_in = g.degrees().max_in_degree();
        let avg_in = g.edge_count() as f64 / g.node_count() as f64;
        assert!(
            max_in as f64 > avg_in * 10.0,
            "no hub formed: max {max_in}, avg {avg_in}"
        );
    }

    #[test]
    fn friendship_graph_is_symmetric() {
        let spec = friendship_spec(
            800,
            FriendshipParams {
                mean_friends: 10.0,
                triadic_closure: 0.5,
                rewire_passes: 0.5,
                community_size: 0,
                community_bias: 0.0,
                closure_extra: 0.4,
            },
        );
        let g = DiGraph::generate(&spec, 2);
        for (u, v) in g.edges() {
            assert!(g.has_edge(v, u), "missing reciprocal edge {v}->{u}");
        }
    }

    #[test]
    fn rewiring_preserves_degree_sequence() {
        let params = FriendshipParams {
            mean_friends: 8.0,
            triadic_closure: 0.4,
            rewire_passes: 0.0,
            community_size: 0,
            community_bias: 0.0,
            closure_extra: 0.0,
        };
        let before = DiGraph::generate(&friendship_spec(500, params), 9);
        let after = DiGraph::generate(
            &friendship_spec(
                500,
                FriendshipParams {
                    rewire_passes: 2.0,
                    ..params
                },
            ),
            9,
        );
        let mut deg_before: Vec<usize> = (0..before.node_count() as NodeId)
            .map(|u| before.degree(u))
            .collect();
        let mut deg_after: Vec<usize> = (0..after.node_count() as NodeId)
            .map(|u| after.degree(u))
            .collect();
        deg_before.sort_unstable();
        deg_after.sort_unstable();
        assert_eq!(deg_before, deg_after);
        assert_eq!(before.edge_count(), after.edge_count());
    }

    #[test]
    fn stats_are_consistent_with_the_graph() {
        let spec = GraphSpec::twitter().with_nodes(500);
        let (g, stats) = DiGraph::generate_with_stats(&spec, 7);
        assert_eq!(stats.nodes, g.node_count());
        assert_eq!(stats.edges, g.edge_count());
        assert!(stats.peak_bytes >= g.resident_bytes() - std::mem::size_of::<DiGraph>());
        assert!(stats.swaps_applied > 0);
        // peak_bytes is part of the deterministic contract — same spec and
        // seed must reproduce it exactly.
        let (_, stats2) = DiGraph::generate_with_stats(&spec, 7);
        assert_eq!(stats.peak_bytes, stats2.peak_bytes);
        assert_eq!(stats.swaps_applied, stats2.swaps_applied);
    }

    #[test]
    fn the_build_peak_is_the_finished_graph() {
        for spec in [GraphSpec::periscope(), GraphSpec::twitter()] {
            let (g, stats) = DiGraph::generate_with_stats(&spec.with_nodes(2_000), 11);
            // No growth slack survives assembly ...
            assert_eq!(g.resident_bytes(), g.clone().resident_bytes());
            // ... and nothing outlives it: the high-water mark is the
            // graph's own four arrays.
            assert_eq!(
                stats.peak_bytes,
                g.resident_bytes() - std::mem::size_of::<DiGraph>()
            );
        }
    }

    const SMALL_FOLLOW: FollowParams = FollowParams {
        mean_follows: 2.0,
        preferential_bias: 0.75,
        triadic_closure: 0.2,
        disassortative_passes: 1.0,
    };

    const SMALL_FRIENDSHIP: FriendshipParams = FriendshipParams {
        mean_friends: 4.0,
        triadic_closure: 0.4,
        rewire_passes: 0.5,
        closure_extra: 0.2,
        community_size: 0,
        community_bias: 0.0,
    };

    #[test]
    #[should_panic(expected = "probability")]
    fn bad_bias_panics() {
        DiGraph::generate(
            &follow_spec(
                10,
                FollowParams {
                    preferential_bias: 1.5,
                    ..SMALL_FOLLOW
                },
            ),
            0,
        );
    }

    #[test]
    #[should_panic(expected = "too many nodes for u32 ids")]
    fn follow_node_count_past_u32_panics_before_allocating() {
        DiGraph::generate(&follow_spec(u32::MAX as usize + 1, SMALL_FOLLOW), 0);
    }

    #[test]
    #[should_panic(expected = "too many nodes for u32 ids")]
    fn friendship_node_count_past_u32_panics_before_allocating() {
        DiGraph::generate(&friendship_spec(u32::MAX as usize + 1, SMALL_FRIENDSHIP), 0);
    }

    #[test]
    #[should_panic(expected = "mean_follows must not be NaN")]
    fn nan_mean_follows_panics() {
        DiGraph::generate(
            &follow_spec(
                10,
                FollowParams {
                    mean_follows: f64::NAN,
                    ..SMALL_FOLLOW
                },
            ),
            0,
        );
    }

    #[test]
    #[should_panic(expected = "mean_friends must not be NaN")]
    fn nan_mean_friends_panics() {
        DiGraph::generate(
            &friendship_spec(
                10,
                FriendshipParams {
                    mean_friends: f64::NAN,
                    ..SMALL_FRIENDSHIP
                },
            ),
            0,
        );
    }

    /// Runs `build` and returns its panic message ("" if it returned).
    fn panic_message(build: impl FnOnce() + std::panic::UnwindSafe) -> String {
        match std::panic::catch_unwind(build) {
            Ok(()) => String::new(),
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default(),
        }
    }

    #[test]
    fn pass_multiples_must_be_finite_and_non_negative() {
        // +inf used to saturate to usize::MAX swap proposals (the build
        // never returned); negative and NaN silently meant 0.
        for bad in [f64::INFINITY, f64::NEG_INFINITY, -0.5, f64::NAN] {
            let follow = follow_spec(
                10,
                FollowParams {
                    disassortative_passes: bad,
                    ..SMALL_FOLLOW
                },
            );
            assert_eq!(
                panic_message(move || drop(DiGraph::generate(&follow, 0))),
                "disassortative_passes must be finite and non-negative",
                "disassortative_passes = {bad}"
            );
            let rewire = friendship_spec(
                10,
                FriendshipParams {
                    rewire_passes: bad,
                    ..SMALL_FRIENDSHIP
                },
            );
            assert_eq!(
                panic_message(move || drop(DiGraph::generate(&rewire, 0))),
                "rewire_passes must be finite and non-negative",
                "rewire_passes = {bad}"
            );
            let closure = friendship_spec(
                10,
                FriendshipParams {
                    closure_extra: bad,
                    ..SMALL_FRIENDSHIP
                },
            );
            assert_eq!(
                panic_message(move || drop(DiGraph::generate(&closure, 0))),
                "closure_extra must be finite and non-negative",
                "closure_extra = {bad}"
            );
        }
        // Zero stays legal: no rewiring at all.
        let none = follow_spec(
            10,
            FollowParams {
                disassortative_passes: 0.0,
                ..SMALL_FOLLOW
            },
        );
        assert_eq!(DiGraph::generate_with_stats(&none, 0).1.swaps_applied, 0);
    }

    /// The whole-array search `urn_pick` ran before the guide: a
    /// branchless lower bound over `estart[1..node]` for the smallest `m`
    /// whose segment end exceeds the key. Kept as the reference the
    /// guided pick must agree with on every key.
    fn urn_pick_oracle(idx: usize, node: NodeId, estart: &[u64], targets: &[NodeId]) -> NodeId {
        if idx == 0 {
            return 0;
        }
        let key = (idx - 1) as u64;
        let mut base = 1usize;
        let mut len = node as usize - 1;
        while len > 1 {
            let half = len / 2;
            let probe = base + half - 1;
            base += usize::from(estart[probe + 1] + probe as u64 <= key) * half;
            len -= half;
        }
        let m = base;
        let seg_start = estart[m] + (m - 1) as u64;
        let off = key - seg_start;
        let out = estart[m + 1] - estart[m];
        if off < out {
            targets[(estart[m] + off) as usize]
        } else {
            m as NodeId
        }
    }

    /// Checks the guided pick against the oracle while an urn grows by
    /// one node per entry of `out_degrees` (node `m ≥ 1` gets
    /// `out_degrees[m - 1]` targets), exactly as phase 1 grows it. Every
    /// target slot carries a distinct value that is no node id, so a
    /// wrong segment *or* a wrong offset inside it shows. During each
    /// node's turn the first and last urn positions are compared; at the
    /// end, every position.
    fn assert_urn_matches_oracle(out_degrees: &[usize]) -> Result<(), String> {
        let mut estart: Vec<u64> = vec![0, 0];
        let mut targets: Vec<NodeId> = Vec::new();
        let mut guide: Vec<NodeId> = Vec::new();
        let check =
            |idx: usize, node: NodeId, estart: &[u64], targets: &[NodeId], guide: &[NodeId]| {
                let got = urn_pick(idx, estart, targets, guide);
                let want = urn_pick_oracle(idx, node, estart, targets);
                if got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "urn position {idx} at node {node}: guided {got}, oracle {want}, \
                     out-degrees {out_degrees:?}"
                    ))
                }
            };
        for (i, &out) in out_degrees.iter().enumerate() {
            let node = i as NodeId + 1;
            let urn_len = estart[node as usize] as usize + node as usize;
            check(0, node, &estart, &targets, &guide)?;
            check(urn_len - 1, node, &estart, &targets, &guide)?;
            let first = targets.len() as NodeId;
            targets.extend((0..out as NodeId).map(|k| NodeId::MAX - first - k));
            let out_end = estart[node as usize] + out as u64;
            estart.push(out_end);
            guide_extend(&mut guide, node, out_end + node as u64);
        }
        let node = out_degrees.len() as NodeId + 1;
        let urn_len = estart[node as usize] as usize + node as usize;
        assert_eq!(guide.len(), (urn_len - 1).div_ceil(1 << GUIDE_SHIFT));
        for idx in 0..urn_len {
            check(idx, node, &estart, &targets, &guide)?;
        }
        Ok(())
    }

    proptest::proptest! {
        #[test]
        fn guided_urn_pick_equals_whole_array_search(
            out_degrees in proptest::collection::vec(
                // Mostly follow-sized segments, with zero-degree nodes
                // (retry cap exhausted) and segments spanning several
                // guide buckets mixed in.
                proptest::prop_oneof![0usize..3, 0usize..40, 0usize..200],
                1..120,
            ),
        ) {
            assert_urn_matches_oracle(&out_degrees)?;
        }
    }

    #[test]
    fn urn_pick_is_exact_at_segment_and_bucket_boundaries() {
        let bucket = 1usize << GUIDE_SHIFT;
        // One node; zero-degree runs at the head, inside and at the tail;
        // segments ending exactly on / one short of / one past a guide
        // bucket edge; one segment spanning four buckets.
        for out_degrees in [
            vec![0],
            vec![1],
            vec![0, 0, 0, 0],
            vec![0, 0, 5, 0, 0, 0, 7, 0, 0],
            vec![bucket - 1, bucket - 1, bucket - 1],
            vec![bucket - 2, bucket, bucket - 1, bucket + 1],
            vec![bucket, bucket, bucket],
            vec![3, 4 * bucket + 3, 0, 0, 2],
            vec![1; 3 * bucket],
            vec![0; 3 * bucket],
        ] {
            assert_urn_matches_oracle(&out_degrees).unwrap();
        }

        // The same, spelled out once: three nodes with 31 targets each put
        // segment ends at keys 32, 64, 96 — the bucket edges themselves.
        let out = bucket - 1;
        let estart: Vec<u64> = (0..5)
            .map(|m: u64| m.saturating_sub(1) * out as u64)
            .collect();
        let targets: Vec<NodeId> = (0..3 * out as NodeId)
            .map(|slot| NodeId::MAX - slot)
            .collect();
        let mut guide = Vec::new();
        for node in 1..=3 {
            guide_extend(&mut guide, node, estart[node as usize + 1] + node as u64);
        }
        assert_eq!(guide, [1, 2, 3]);
        let pick = |idx| urn_pick(idx, &estart, &targets, &guide);
        assert_eq!(pick(0), 0, "the seed entry");
        assert_eq!(pick(1), NodeId::MAX, "key 0: node 1's first target");
        assert_eq!(
            pick(bucket - 1),
            NodeId::MAX - 30,
            "key 30: its last target"
        );
        assert_eq!(pick(bucket), 1, "key 31 = (1 << S) - 1: node 1 itself");
        assert_eq!(pick(bucket + 1), NodeId::MAX - 31, "key 32 = 1 << S");
        assert_eq!(pick(2 * bucket), 2, "key 63 = (2 << S) - 1");
        assert_eq!(pick(2 * bucket + 1), NodeId::MAX - 62, "key 64 = 2 << S");
        assert_eq!(pick(3 * bucket), 3, "the last urn slot");
    }

    /// An absolute pin captured from the whole-array-search /
    /// sorted-mirror generator (commit 72f5518) for an edge-case spec.
    fn assert_follow_pin(
        spec: &GraphSpec,
        seed: u64,
        edges: usize,
        adjacency: u64,
        swaps: u64,
    ) -> DiGraph {
        let (g, stats) = DiGraph::generate_with_stats(spec, seed);
        assert_eq!(g.edge_count(), edges);
        assert_eq!(g.adjacency_checksum(), adjacency);
        assert_eq!(stats.swaps_applied, swaps);
        for u in 0..g.node_count() as NodeId {
            let out = g.out_neighbors(u);
            assert!(out.windows(2).all(|w| w[0] < w[1]), "node {u}: {out:?}");
            assert!(!out.contains(&u), "node {u} follows itself");
        }
        g
    }

    #[test]
    fn two_node_follow_graph_is_the_single_edge() {
        // The minimum population: node 1's urn is the seed entry alone.
        for seed in [0, 1, 7] {
            let spec = GraphSpec::periscope().with_nodes(2);
            let g = assert_follow_pin(&spec, seed, 1, 0x9542add468f86d82, 0);
            assert!(g.has_edge(1, 0));
        }
    }

    #[test]
    fn retry_cap_bounds_a_build_that_cannot_find_enough_targets() {
        // Everyone wants to follow every earlier user through purely
        // preferential draws; the newest users carry almost no urn
        // weight, so from a few dozen nodes on every node exhausts its
        // `follows * 20` attempts short of `node` targets.
        let spec = follow_spec(
            300,
            FollowParams {
                mean_follows: 1e9,
                preferential_bias: 1.0,
                triadic_closure: 0.0,
                disassortative_passes: 0.5,
            },
        );
        let g = assert_follow_pin(&spec, 5, 42_624, 0x10f1a9becaa49ee7, 1);
        let capped = (0..300).filter(|&u| g.out_degree(u) < u as usize).count();
        assert_eq!(capped, 260);
        assert!((100..300).all(|u| g.out_degree(u) < u as usize));
    }

    #[test]
    fn rewiring_is_exact_on_segments_longer_than_a_source_block() {
        // Out-degrees in the hundreds: one node's segment covers several
        // 256-edge `source_of` blocks, the membership scan reads a whole
        // long segment, and the end-of-loop sort has real work to do.
        for (p, edges, adjacency, swaps, max_out) in [
            (
                FollowParams {
                    mean_follows: 120.0,
                    preferential_bias: 0.75,
                    triadic_closure: 0.28,
                    disassortative_passes: 1.0,
                },
                338_582,
                0x742acd026cb706ee,
                70_742,
                964,
            ),
            (
                FollowParams {
                    mean_follows: 120.0,
                    preferential_bias: 0.85,
                    triadic_closure: 0.5,
                    disassortative_passes: 3.0,
                },
                338_014,
                0xe47a4793feead0de,
                120_135,
                1_314,
            ),
        ] {
            let spec = follow_spec(3_000, p);
            let g = assert_follow_pin(&spec, 9, edges, adjacency, swaps);
            assert_eq!(
                (0..3_000).map(|u| g.out_degree(u)).max(),
                Some(max_out),
                "hub out-degree must exceed one 256-edge block"
            );
        }
    }
}
