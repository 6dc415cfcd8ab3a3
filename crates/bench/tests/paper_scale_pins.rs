//! Paper-scale byte-identity pins: the follow-graph build at the
//! benchmark's `graph_build` size (300k nodes) and at divisor 10 (1.2M),
//! and the guide-table weighted pick up to the paper's own 12M users.
//!
//! Each build takes seconds in release and far longer in debug, so this
//! target is `test = false`: the workspace `cargo test` skips it and
//! `scripts/ci.sh` runs it as
//! `cargo test --release -q -p livescope-bench --test paper_scale_pins`.
//! What these builds cost is measured elsewhere: `graph.decide_rewire_s`
//! and `graph.assemble_s` on `benchmark/`'s `graph_build` workload, and
//! `bench_replay`'s divisor-10 `handler.graph.*` sections.

use livescope_graph::{DiGraph, FollowParams, GraphKind, GraphSpec};
use livescope_sim::dist;
use livescope_workload::{CumulativeTable, ScenarioConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 42;

/// `spec` with the rewiring loop switched off: phase-1 decide and
/// phase-2 assemble only.
fn without_rewiring(spec: GraphSpec) -> GraphSpec {
    let GraphKind::Follow(params) = spec.kind else {
        panic!("follow presets only");
    };
    GraphSpec {
        kind: GraphKind::Follow(FollowParams {
            disassortative_passes: 0.0,
            ..params
        }),
        ..spec
    }
}

/// Builds `spec` at [`SEED`] without and then with rewiring and checks
/// each adjacency checksum against the value the whole-array-search /
/// sorted-mirror generator produced.
fn assert_builds(name: &str, spec: GraphSpec, decide_assemble: u64, rewired: u64) {
    for (label, spec, pinned) in [
        ("decide_assemble", without_rewiring(spec), decide_assemble),
        ("rewired", spec, rewired),
    ] {
        assert_eq!(
            DiGraph::generate(&spec, SEED).adjacency_checksum(),
            pinned,
            "{name}/{label}: the build no longer emits the pinned graph"
        );
    }
}

#[test]
fn periscope_300k_builds_the_pinned_graphs() {
    assert_builds(
        "periscope_300k",
        GraphSpec::periscope().with_nodes(300_000),
        0x7e898f75e3f5f6d7,
        0x652831a42a61f6ac,
    );
}

#[test]
fn periscope_1200k_builds_the_pinned_graphs() {
    assert_builds(
        "periscope_1200k",
        GraphSpec::periscope().with_nodes(1_200_000),
        0x7885b39e9dbc7e64,
        0xc9563a759bf992dd,
    );
}

#[test]
fn twitter_300k_builds_the_pinned_graphs() {
    assert_builds(
        "twitter_300k",
        GraphSpec::twitter().with_nodes(300_000),
        0xf4377e7d152b5a0e,
        0x281f62f12ee8ff03,
    );
}

/// Picks compared per table size (~230 Periscope records' worth of
/// mobile views).
const PICKS: usize = 4_096;

/// The search the guide replaced: `partition_point` over the whole table.
fn oracle_pick(cumulative: &[f64], rng: &mut SmallRng) -> u32 {
    let total = *cumulative.last().expect("non-empty table");
    let needle = rng.gen_range(0.0..total);
    cumulative.partition_point(|&c| c <= needle) as u32
}

/// The guide-table pick (DESIGN.md §10) finds the same user as the
/// whole-table binary search at the viewer-propensity table sizes of
/// `usage_replay` (300k users), divisor 10 (1.2M) and the paper (12M).
/// Both arms make the same `gen_range(0.0..total)` draw per pick from
/// the same seed, so they search for the same needles.
#[test]
fn guided_pick_matches_partition_point_at_paper_scale() {
    let preset = ScenarioConfig::periscope_study();
    for users in [300_000usize, 1_200_000, 12_000_000] {
        // Periscope's viewer table: lognormal σ = 2.2, 5% inactive.
        let table = CumulativeTable::new(
            &mut SmallRng::seed_from_u64(SEED),
            users,
            preset.viewer_inactive_fraction,
            |rng| dist::log_normal(rng, 0.0, preset.viewer_activity_sigma),
        );
        let cumulative = table.cumulative();
        let (mut a, mut b) = (SmallRng::seed_from_u64(SEED), SmallRng::seed_from_u64(SEED));
        for _ in 0..PICKS {
            assert_eq!(
                table.pick(&mut a),
                oracle_pick(cumulative, &mut b),
                "{users} users"
            );
        }
    }
}
