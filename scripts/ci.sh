#!/usr/bin/env bash
# The CI gate, runnable anywhere with a Rust toolchain (`just ci` calls this).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

# The determinism gate: `[workspace.lints]` in Cargo.toml and clippy.toml
# ban hash containers, clock reads, ambient RNG, shared mutable state,
# `unsafe`, `todo!` and `unimplemented!`; tests/lint_canary.rs makes a
# dropped ban fail here as `unfulfilled_lint_expectations`. The one hazard
# no type can ban, a trace written from a scheduler handler instead of
# through its `EventCtx`, panics in `Telemetry::emit` off the thread that
# made the handle; the traced lane sweeps under `cargo test` below run
# every multi-shard world at two or more lanes.
echo "==> cargo clippy --workspace --all-targets -- -D warnings (the determinism gate)"
cargo clippy --workspace --all-targets -- -D warnings

# `benchmark/` is its own cargo workspace that calls pinned library entry
# points (benchmark/README.md § "Library entry points") and checks every
# workload's output against pinned digests. One set-up pass of each
# workload (`--seconds 0`) under BENCHMARK.json's allocator pin catches
# both a signature change that would break it and a change that moves an
# output: a digest mismatch exits non-zero. Cargo rewrites its stale
# Cargo.lock on the way, so the committed one is put back afterwards.
echo "==> benchmark/ digests (release build, --workload all --seconds 0, allocator pinned; Cargo.lock restored)"
bench_lock=$(mktemp)
cp benchmark/Cargo.lock "$bench_lock"
trap 'cp "$bench_lock" benchmark/Cargo.lock; rm -f "$bench_lock"' EXIT
cargo build --release --offline -q --manifest-path benchmark/Cargo.toml
env MALLOC_MMAP_THRESHOLD_=1048576 MALLOC_TRIM_THRESHOLD_=268435456 \
    cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
    --workload all --seconds 0 | grep 'digest checks'

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> rustdoc gate (-D warnings; vendor/* exempt)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --workspace \
    --exclude bytes --exclude proptest --exclude rand \
    --exclude serde --exclude serde_derive --exclude serde_json

# Every paper artifact and bench tool is a subcommand of this one binary.
livescope() { cargo run --release -q -p livescope-bench -- "$@"; }

echo "==> livescope all (the 25 paper artifacts regenerate and leave their 43 sidecar files)"
artifacts_dir=$(mktemp -d)
LIVESCOPE_RESULTS="$artifacts_dir" livescope all >/dev/null
sidecars=$(find "$artifacts_dir" -type f | wc -l)
rm -rf "$artifacts_dir"
[ "$sidecars" -eq 43 ] || { echo "expected 43 sidecar files, got $sidecars"; exit 1; }

# The one trace writer and the one reader, end to end through the CLI:
# folding a captured trace file must print the JSON the capture printed,
# and must skip no line (a skip is reported on stderr).
echo "==> obs_report capture-then-fold round trip (breakdown, celebrity)"
trace_dir=$(mktemp -d)
for workload in breakdown celebrity; do
    livescope obs_report --json --workload "$workload" --capture "$trace_dir/trace.jsonl" \
        >"$trace_dir/captured.json" 2>/dev/null
    livescope obs_report --json "$trace_dir/trace.jsonl" \
        >"$trace_dir/folded.json" 2>"$trace_dir/fold.err"
    cmp -s "$trace_dir/captured.json" "$trace_dir/folded.json" ||
        { echo "obs_report $workload: the folded trace reports differently"; exit 1; }
    [ ! -s "$trace_dir/fold.err" ] ||
        { echo "obs_report $workload: the fold skipped lines:"; cat "$trace_dir/fold.err"; exit 1; }
done
rm -rf "$trace_dir"

echo "==> usage errors exit 2 before any work (unknown or retired subcommand, unknown or retired flag on an artifact, on the bench tool; scripts/ab.sh and scripts/profile.sh missing an argument)"
for probe in "no_such_command" "trace_summary" "bench_shards" "bench_check" "fig11 --no-such-flag" \
    "bench_replay --no-such-flag" "bench_replay --smoke"; do
    status=0
    # shellcheck disable=SC2086  # the probe is a command line, split on purpose
    livescope $probe >/dev/null 2>&1 || status=$?
    [ "$status" -eq 2 ] || { echo "livescope $probe: expected exit 2, got $status"; exit 1; }
done
status=0
bash scripts/ab.sh HEAD HEAD >/dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || { echo "scripts/ab.sh HEAD HEAD: expected exit 2, got $status"; exit 1; }
status=0
bash scripts/profile.sh HEAD >/dev/null 2>&1 || status=$?
[ "$status" -eq 2 ] || { echo "scripts/profile.sh HEAD: expected exit 2, got $status"; exit 1; }

# `bench_replay` only measures and is not run here: the identities it
# prints are pinned by `cargo test` above (csr_regression,
# streaming_replay, the replay digest pin, bench_replay's divisor-1000
# row) and by the divisor-100 row in release below, which also bounds
# that row's graph-build wall at 4x the committed one. The
# observability baseline, baselines/OBS_report.json, is pinned exactly
# by `cargo test` above (`obs::tests`).
echo "==> BENCH_replay.json divisor-100 row (release: records, views, tracked bytes, digests, graph build, build-wall bound)"
cargo test --release -q -p livescope-bench --bin livescope -- --exact \
    cmd::bench_replay::tests::divisor_100_row_matches_a_fresh_run

# The paper-scale pins are a test target of their own, `test = false` so
# the debug `cargo test` above skips it: six follow-graph builds
# (Periscope 300k and 1.2M, Twitter 300k; rewiring off and as shipped)
# against their pinned adjacency checksums, and guided weighted picks
# against the whole-table search at 300k/1.2M/12M users. ~20 s on the
# 2-vCPU reference host once compiled. The Fig 14 operation counts (RTMP
# and HLS per audience, edge operations per poll interval) are unit tests
# in `core::experiments::scalability`, run by `cargo test` above.
echo "==> paper-scale pins (release: follow-graph checksums, weighted-pick equality)"
cargo test --release -q -p livescope-bench --test paper_scale_pins

echo "CI gate passed."
