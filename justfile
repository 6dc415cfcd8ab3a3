# Development commands. `just ci` is the gate every change must pass;
# scripts/ci.sh is its one definition, runnable without `just`.

# Run the full CI gate: format check, detlint, clippy (the determinism
# gate), tests, rustdoc gate, `livescope all`, usage-error probes, one
# untimed pass of the micro and hot-path benches, bench-regression gate.
ci:
    bash scripts/ci.sh

fmt-check:
    cargo fmt --check

fmt:
    cargo fmt

# The one determinism rule the compiler cannot check, `direct-trace-emit`
# (crates/detlint/DESIGN.md): the workspace scan must come back clean.
# Every file is analyzed on every run; nothing is written. The fixture
# corpus must still trip both rules (detlint's own self-test enforces the
# exact counts). Everything else in the contract is `just clippy`.
lint-det:
    cargo run -q -p livescope-detlint --bin detlint

# Explain one detlint rule, e.g. `just lint-det-explain direct-trace-emit`.
lint-det-explain rule:
    cargo run -q -p livescope-detlint --bin detlint -- --explain {{rule}}

# Dump the brace-matched scope tree detlint builds for one file — the
# debugging view for `direct-trace-emit`, e.g.
# `just lint-det-scopes crates/sim/src/engine.rs`.
lint-det-scopes file:
    cargo run -q -p livescope-detlint --bin detlint -- --list-scopes {{file}}

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

test:
    cargo test --workspace -q

# Rustdoc gate: every public item documented, no broken intra-doc links.
# Targets the livescope crates explicitly — vendor/* members are exempt.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
        -p livescope-sim -p livescope-telemetry -p livescope-net \
        -p livescope-proto -p livescope-graph -p livescope-workload \
        -p livescope-cdn -p livescope-client -p livescope-crawler \
        -p livescope-security -p livescope-analysis -p livescope-overlay \
        -p livescope-core -p livescope-bench -p livescope-detlint \
        -p livescope-examples

# Regenerate all 25 paper artifacts (tab1, tab2, fig1…fig18 and the five
# companion studies) under results/ — ~11 s in release. Any one of them:
# `cargo run --release -p livescope-bench -- fig11`.
artifacts:
    cargo run --release -q -p livescope-bench -- all

# Streaming-replay scale sweep (divisors 1000/100/10/1 of the Periscope
# study): wall time, broadcasts/sec, and the peak tracked replay state
# per divisor, plus the two worker scaling curves at divisor 10 (replay
# shards and graph assembly shards, K ∈ {1,2,4,6} on real threads, each
# asserted identical to K = 1 before the write) and the top-5 handler
# histograms under the celebrity fan-out. Writes BENCH_replay.json.
bench-replay:
    cargo run --release -q -p livescope-bench -- bench_replay

# Weighted-pick microbench (DESIGN.md §10): guide-table pick vs the
# whole-table binary search it replaced, ns/pick at 300k / 1.2M / 12M
# users — the paper-scale effect without a divisor-1 replay.
bench-pick:
    cargo bench -p livescope-bench --bench micro_weighted_pick -- --bench

# Follow-graph build phases (DESIGN.md §12): decide + assemble alone vs
# the full build with rewiring, Periscope at 300k / 1.2M nodes and
# Twitter at 300k; ns/edge = 1000 / Melem/s, ns/swap-proposal from the
# difference of the two lines over the printed proposal count.
bench-graph-phases:
    cargo bench -p livescope-bench --bench micro_graph_phases -- --bench

# Capture a JSONL trace of the breakdown experiment and fold it.
trace out="results/trace.jsonl":
    cargo run --release -q -p livescope-bench -- obs_report --capture {{out}}

# The observability report (crates/telemetry/DESIGN.md): event counts,
# the delay ledger, per-POP six-component delay distributions, QoE
# session metrics, and the top-5 slowest chunk-journey waterfalls over
# the breakdown + celebrity workloads.
# Writes results/OBS_report.json.
obs:
    cargo run --release -q -p livescope-bench -- obs_report

# Bench-regression gate: regenerate the deterministic observability
# artifact and compare it metric-by-metric against baselines/.
bench-check:
    cargo run --release -q -p livescope-bench -- bench_check

# Refresh the committed baseline after a reviewed, intentional change.
bench-check-write:
    cargo run --release -q -p livescope-bench -- bench_check --write-baselines

# Hot-path Criterion benches (fan-out CPU, poll interval); both assert
# their exact operation counts before timing. The end-to-end number for
# this path is the repo benchmark's `edge_fanout` workload
# (`cdn.poll_ns.*` / `cdn.download_ns.*` at 9,000 viewers), and the
# exact counter that says whether a poll was a refcount bump or a
# chunklist build is `fastly.playlist_rebuilds` (next to
# `fastly.origin_fetches`; both follow the chunks, not the audience).
bench-hotpath:
    cargo bench -p livescope-bench --bench fanout_cpu -- --bench
    cargo bench -p livescope-bench --bench poll_interval -- --bench

# Alternated A/B pairs of the repo benchmark between two revisions, each
# exported with `git archive` and built once into target/ab/<sha>: prints
# both sides' median and quartiles of `units_per_s`, the pairs B won, and
# any run whose digest checks failed. E.g. `just ab HEAD~1 HEAD
# edge_fanout` (10 pairs of 24 s runs), or `just ab HEAD~1 HEAD
# edge_fanout 10 6 0xbeefff25` for shorter runs on another seed.
ab rev_a rev_b workload *rest:
    bash scripts/ab.sh {{rev_a}} {{rev_b}} {{workload}} {{rest}}

# Sampled "where the time went" profile of one revision's benchmark
# workload: scripts/sigprof.c (an LD_PRELOAD SIGPROF sampler) plus
# `addr2line -i`. E.g. `just profile HEAD edge_fanout 8
# 'queue=queue\.rs' 'radix=^sort_bucket<'`.
profile rev workload *rest:
    bash scripts/profile.sh {{rev}} {{workload}} {{rest}}
