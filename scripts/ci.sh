#!/usr/bin/env bash
# The CI gate, runnable anywhere with a Rust toolchain (`just ci` calls this).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

# The determinism lint runs before clippy so its findings fail fast.
# One run gates the tree (token + structural rules + allowlist audit)
# and leaves a SARIF 2.1.0 artifact for CI annotation upload.
echo "==> detlint (determinism & safety static analysis + allowlist audit)"
cargo run -q -p livescope-detlint --bin detlint -- --sarif-out target/detlint.sarif

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test -p livescope-sim --features profile -q"
cargo test -p livescope-sim --features profile -q

echo "==> rustdoc gate (-D warnings; vendor/* exempt)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
    -p livescope-sim -p livescope-telemetry -p livescope-net \
    -p livescope-proto -p livescope-graph -p livescope-workload \
    -p livescope-cdn -p livescope-client -p livescope-crawler \
    -p livescope-security -p livescope-analysis -p livescope-overlay \
    -p livescope-core -p livescope-bench -p livescope-detlint \
    -p livescope-examples

echo "==> bench_shards smoke (cross-lane checksum invariance)"
cargo run --release -q -p livescope-bench --bin bench_shards -- --smoke

echo "==> bench_shards rejects an unknown flag (exit 2, before any work)"
status=0
cargo run --release -q -p livescope-bench --bin bench_shards -- --no-such-flag 2>/dev/null || status=$?
[ "$status" -eq 2 ] || { echo "expected exit 2, got $status"; exit 1; }

echo "==> bench_replay smoke (streaming vs materialized checksum at divisor 1000)"
cargo run --release -q -p livescope-bench --bin bench_replay -- --smoke

echo "==> worker K-sweep smoke (sharded digest == streaming digest, K 1/2/6)"
cargo run --release -q -p livescope-bench --bin bench_replay -- --workers --smoke

echo "==> graph-build K-sweep smoke (parallel assembly checksums == committed pins, K 1/2/6)"
cargo run --release -q -p livescope-bench --bin bench_replay -- --graph-only --smoke

# `cargo test` does not put `--bench` in argv, so the vendored Criterion
# runs every bench body exactly once, untimed: what gates the PR is the
# checksum each body asserts before it would be timed (six follow-graph
# builds against their pinned adjacency checksums; guided weighted picks
# against the whole-table search at 300k/1.2M/12M users). ~35 s on the
# 2-vCPU reference host once compiled, nearly all of it the four
# 1.2M-node builds.
echo "==> micro benches, one untimed pass each (pre-timing checksum asserts)"
cargo test --release -q -p livescope-bench --bench micro_graph_phases --bench micro_weighted_pick

echo "==> obs_report smoke (celebrity fan-out report bytes identical, lanes 1/2/6)"
cargo run --release -q -p livescope-bench --bin obs_report -- --smoke

echo "==> bench-regression gate (fresh artifact vs baselines/)"
cargo run --release -q -p livescope-bench --bin bench_check

echo "CI gate passed."
