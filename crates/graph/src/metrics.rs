//! The five Table 2 metrics: nodes, edges, average degree, clustering
//! coefficient, average shortest-path length, degree assortativity.
//!
//! Clustering and path length follow the conventions of the papers Table 2
//! cites: both are computed on the *undirected projection* of the graph
//! (an edge in either direction connects the pair), and both are sampled —
//! exact all-pairs computation is quadratic-plus and the paper's own
//! numbers for 231M-edge graphs were necessarily sampled too.

use rand::rngs::SmallRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};
use std::collections::VecDeque;

use crate::digraph::{DiGraph, NodeId};

/// Table 2 row for one graph.
#[derive(Clone, Copy, Debug)]
pub struct GraphMetrics {
    pub nodes: usize,
    pub edges: usize,
    /// Average total degree (in + out), matching the paper's convention of
    /// reporting ~38.6 for 231M directed edges over 12M nodes.
    pub avg_degree: f64,
    /// Sampled average local clustering coefficient.
    pub clustering: f64,
    /// Sampled average shortest-path length over reachable pairs.
    pub avg_path: f64,
    /// Degree assortativity (Pearson correlation of endpoint degrees).
    pub assortativity: f64,
}

/// Sampling budget for the expensive metrics.
#[derive(Clone, Copy, Debug)]
pub struct MetricsConfig {
    /// Nodes sampled for the clustering coefficient.
    pub clustering_samples: usize,
    /// BFS sources sampled for average path length.
    pub path_samples: usize,
    /// Per-source cap on visited nodes (0 = unbounded).
    pub path_visit_cap: usize,
    pub seed: u64,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            clustering_samples: 2_000,
            path_samples: 64,
            path_visit_cap: 0,
            seed: 0x9E37,
        }
    }
}

/// Computes all Table 2 metrics for `graph`.
pub fn compute(graph: &DiGraph, config: &MetricsConfig) -> GraphMetrics {
    GraphMetrics {
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        avg_degree: avg_degree(graph),
        clustering: clustering_coefficient(graph, config),
        avg_path: avg_path_length(graph, config),
        assortativity: assortativity(graph),
    }
}

/// Average total degree: `2·|E| / |V|` in the directed-edge-count sense
/// (each directed edge contributes one out- and one in-degree).
pub fn avg_degree(graph: &DiGraph) -> f64 {
    if graph.node_count() == 0 {
        return 0.0;
    }
    2.0 * graph.edge_count() as f64 / graph.node_count() as f64
}

/// Undirected neighbor set of `u`, deduplicated.
fn undirected_neighbors(graph: &DiGraph, u: NodeId) -> Vec<NodeId> {
    let mut n: Vec<NodeId> = graph
        .out_neighbors(u)
        .iter()
        .chain(graph.in_neighbors(u))
        .copied()
        .filter(|&v| v != u)
        .collect();
    n.sort_unstable();
    n.dedup();
    n
}

/// True if `u` and `v` are connected in either direction.
fn connected(graph: &DiGraph, u: NodeId, v: NodeId) -> bool {
    graph.has_edge(u, v) || graph.has_edge(v, u)
}

/// Average local clustering coefficient over sampled nodes with degree ≥ 2.
pub fn clustering_coefficient(graph: &DiGraph, config: &MetricsConfig) -> f64 {
    let n = graph.node_count();
    if n == 0 {
        return 0.0;
    }
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut nodes: Vec<NodeId> = (0..n as NodeId).collect();
    nodes.shuffle(&mut rng);
    let mut total = 0.0;
    let mut counted = 0usize;
    for &u in nodes.iter() {
        if counted >= config.clustering_samples {
            break;
        }
        let neigh = undirected_neighbors(graph, u);
        if neigh.len() < 2 {
            continue;
        }
        // For very high-degree nodes, sample neighbor pairs instead of
        // enumerating the quadratic set.
        let k = neigh.len();
        let pairs_total = k * (k - 1) / 2;
        let budget = 200.min(pairs_total);
        let mut closed = 0usize;
        if pairs_total <= budget {
            for i in 0..k {
                for j in (i + 1)..k {
                    if connected(graph, neigh[i], neigh[j]) {
                        closed += 1;
                    }
                }
            }
            total += closed as f64 / pairs_total as f64;
        } else {
            for _ in 0..budget {
                let i = rng.gen_range(0..k);
                let mut j = rng.gen_range(0..k - 1);
                if j >= i {
                    j += 1;
                }
                if connected(graph, neigh[i], neigh[j]) {
                    closed += 1;
                }
            }
            total += closed as f64 / budget as f64;
        }
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// Average shortest-path length from sampled sources, over the undirected
/// projection, counting only reached pairs.
pub fn avg_path_length(graph: &DiGraph, config: &MetricsConfig) -> f64 {
    let n = graph.node_count();
    if n < 2 {
        return 0.0;
    }
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xABCD);
    let mut total = 0u64;
    let mut pairs = 0u64;
    let mut dist = vec![u32::MAX; n];
    for _ in 0..config.path_samples {
        let source = rng.gen_range(0..n as NodeId);
        dist.iter_mut().for_each(|d| *d = u32::MAX);
        dist[source as usize] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(source);
        let mut visited = 0usize;
        while let Some(u) = queue.pop_front() {
            visited += 1;
            if config.path_visit_cap > 0 && visited >= config.path_visit_cap {
                break;
            }
            let du = dist[u as usize];
            for &v in graph.out_neighbors(u).iter().chain(graph.in_neighbors(u)) {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = du + 1;
                    total += (du + 1) as u64;
                    pairs += 1;
                    queue.push_back(v);
                }
            }
        }
    }
    if pairs == 0 {
        0.0
    } else {
        total as f64 / pairs as f64
    }
}

/// Degree assortativity: the Pearson correlation, over directed edges, of
/// the source's out-degree with the target's in-degree. Negative values
/// mean low-degree users attach to high-degree celebrities — the Twitter
/// (and Periscope) signature the paper points out.
pub fn assortativity(graph: &DiGraph) -> f64 {
    let m = graph.edge_count();
    if m == 0 {
        return 0.0;
    }
    let mut sx = 0.0;
    let mut sy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    let mut sxy = 0.0;
    // Raw CSR walk: same edge order as `graph.edges()` (so the float sums
    // are bit-identical) without the per-node flat_map iterator overhead.
    let (offsets, targets) = graph.out_csr();
    let deg = graph.degrees();
    for u in 0..graph.node_count() {
        let x = deg.degree(u as NodeId) as f64;
        for &v in &targets[offsets[u] as usize..offsets[u + 1] as usize] {
            let y = deg.degree(v) as f64;
            sx += x;
            sy += y;
            sxx += x * x;
            syy += y * y;
            sxy += x * y;
        }
    }
    let n = m as f64;
    let cov = sxy / n - (sx / n) * (sy / n);
    let var_x = sxx / n - (sx / n).powi(2);
    let var_y = syy / n - (sy / n).powi(2);
    if var_x <= 0.0 || var_y <= 0.0 {
        return 0.0;
    }
    cov / (var_x * var_y).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{FollowParams, FriendshipParams, GraphKind, GraphSpec};

    fn small_config() -> MetricsConfig {
        MetricsConfig {
            clustering_samples: 500,
            path_samples: 32,
            path_visit_cap: 0,
            seed: 1,
        }
    }

    /// K_n over mutual edges, as a directed edge list.
    fn complete_mutual(n: NodeId) -> DiGraph {
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                edges.push((u, v));
                edges.push((v, u));
            }
        }
        DiGraph::from_edges(n as usize, &edges)
    }

    #[test]
    fn complete_graph_metrics() {
        // K5, mutual edges: clustering 1.0, path 1.0, avg degree 8.
        let g = complete_mutual(5);
        let m = compute(&g, &small_config());
        assert_eq!(m.nodes, 5);
        assert_eq!(m.edges, 20);
        assert!((m.avg_degree - 8.0).abs() < 1e-9);
        assert!((m.clustering - 1.0).abs() < 1e-9);
        assert!((m.avg_path - 1.0).abs() < 1e-9);
    }

    #[test]
    fn path_graph_metrics() {
        // 0-1-2-3 path (mutual): no triangles, known path lengths.
        let mut edges = Vec::new();
        for u in 0..3 {
            edges.push((u, u + 1));
            edges.push((u + 1, u));
        }
        let g = DiGraph::from_edges(4, &edges);
        let m = compute(&g, &small_config());
        assert_eq!(m.clustering, 0.0);
        assert!(m.avg_path > 1.0 && m.avg_path < 3.0);
    }

    #[test]
    fn star_graph_is_disassortative() {
        // Spokes follow the hub: classic negative-assortativity shape.
        let mut edges: Vec<(NodeId, NodeId)> = (1..21).map(|spoke| (spoke, 0)).collect();
        // A couple of spoke-to-spoke edges so degrees vary on both sides.
        edges.push((1, 2));
        edges.push((3, 4));
        let g = DiGraph::from_edges(21, &edges);
        assert!(assortativity(&g) < 0.0);
    }

    #[test]
    fn empty_and_tiny_graphs_do_not_panic() {
        let g = DiGraph::from_edges(0, &[]);
        let m = compute(&g, &small_config());
        assert_eq!(m.avg_degree, 0.0);
        let g1 = DiGraph::from_edges(1, &[]);
        let m1 = compute(&g1, &small_config());
        assert_eq!(m1.avg_path, 0.0);
        assert_eq!(m1.assortativity, 0.0);
    }

    #[test]
    fn follow_graph_is_disassortative_like_twitter() {
        let g = DiGraph::generate(
            &GraphSpec {
                nodes: 4_000,
                kind: GraphKind::Follow(FollowParams {
                    mean_follows: 8.0,
                    preferential_bias: 0.85,
                    triadic_closure: 0.2,
                    disassortative_passes: 1.0,
                }),
            },
            11,
        );
        let r = assortativity(&g);
        assert!(r < -0.01, "expected negative assortativity, got {r}");
    }

    #[test]
    fn friendship_graph_beats_follow_graph_on_clustering_and_assortativity() {
        // The Table 2 contrast in one test: the Facebook-like generator
        // must produce higher clustering AND higher assortativity than the
        // Twitter-like one.
        let fb = DiGraph::generate(
            &GraphSpec {
                nodes: 3_000,
                kind: GraphKind::Friendship(FriendshipParams {
                    mean_friends: 12.0,
                    triadic_closure: 0.55,
                    rewire_passes: 1.0,
                    community_size: 0,
                    community_bias: 0.0,
                    closure_extra: 0.4,
                }),
            },
            5,
        );
        let tw = DiGraph::generate(
            &GraphSpec {
                nodes: 3_000,
                kind: GraphKind::Follow(FollowParams {
                    mean_follows: 6.0,
                    preferential_bias: 0.85,
                    triadic_closure: 0.2,
                    disassortative_passes: 1.0,
                }),
            },
            5,
        );
        let cfg = small_config();
        let m_fb = compute(&fb, &cfg);
        let m_tw = compute(&tw, &cfg);
        assert!(
            m_fb.clustering > m_tw.clustering,
            "clustering: fb {} vs tw {}",
            m_fb.clustering,
            m_tw.clustering
        );
        assert!(
            m_fb.assortativity > m_tw.assortativity,
            "assortativity: fb {} vs tw {}",
            m_fb.assortativity,
            m_tw.assortativity
        );
    }

    #[test]
    fn small_world_paths_are_short() {
        let g = DiGraph::generate(
            &GraphSpec {
                nodes: 5_000,
                kind: GraphKind::Follow(FollowParams {
                    mean_follows: 10.0,
                    preferential_bias: 0.8,
                    triadic_closure: 0.2,
                    disassortative_passes: 1.0,
                }),
            },
            3,
        );
        let m = compute(&g, &small_config());
        assert!(
            m.avg_path > 1.5 && m.avg_path < 8.0,
            "avg path {} outside small-world range",
            m.avg_path
        );
    }
}
