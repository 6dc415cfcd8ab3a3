# Development commands. `just ci` is the gate every change must pass;
# scripts/ci.sh is its one definition, runnable without `just`.

# Run the full CI gate: format check, clippy (the determinism
# gate), the benchmark digests, tests (the OBS_report.json pin among
# them), rustdoc gate, `livescope all`, the obs_report round trip,
# usage-error probes, the divisor-100 row and the paper-scale pins.
ci:
    bash scripts/ci.sh

fmt-check:
    cargo fmt --check

fmt:
    cargo fmt

clippy:
    cargo clippy --workspace --all-targets -- -D warnings

test:
    cargo test --workspace -q

# Rustdoc gate: every public item documented, no broken intra-doc links.
# Every workspace member but the vendor/* crates, so a new member is
# gated by default.
doc:
    RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q --workspace \
        --exclude bytes --exclude proptest --exclude rand \
        --exclude serde --exclude serde_derive --exclude serde_json

# Regenerate all 25 paper artifacts (tab1, tab2, fig1…fig18 and the five
# companion studies) under results/ — ~11 s in release. Any one of them:
# `cargo run --release -p livescope-bench -- fig11`.
artifacts:
    cargo run --release -q -p livescope-bench -- all

# Streaming-replay scale sweep (divisors 1000/100/10/1 of the Periscope
# study): graph-build and replay wall time, broadcasts/sec, and the peak
# tracked replay state per divisor, plus the top-5 handler histograms
# under the celebrity fan-out. Writes BENCH_replay.json.
bench-replay:
    cargo run --release -q -p livescope-bench -- bench_replay

# Capture a JSONL trace of the breakdown experiment and fold it.
trace out="results/trace.jsonl":
    cargo run --release -q -p livescope-bench -- obs_report --capture {{out}}

# The observability report (crates/telemetry/DESIGN.md): event counts,
# the delay ledger, per-POP six-component delay distributions, QoE
# session metrics, and the top-5 slowest chunk-journey waterfalls over
# the breakdown + celebrity workloads.
# Writes results/OBS_report.json; `LIVESCOPE_RESULTS=baselines just obs`
# rewrites the committed baseline that `cargo test` pins exactly.
obs:
    cargo run --release -q -p livescope-bench -- obs_report

# Alternated A/B pairs of the repo benchmark between two revisions, each
# exported with `git archive` and built once into target/ab/<sha>: prints
# every pair's three end-to-end metrics, both sides' median and quartiles
# of each, the pairs B won on each (in BENCHMARK.json's `better`
# direction), and any run whose digest checks failed. E.g. `just ab HEAD~1 HEAD
# edge_fanout` (10 pairs of 24 s runs), or `just ab HEAD~1 HEAD
# edge_fanout 10 6 0xbeefff25` for shorter runs on another seed.
ab rev_a rev_b workload *rest:
    bash scripts/ab.sh {{rev_a}} {{rev_b}} {{workload}} {{rest}}

# Sampled "where the time went" profile of one revision's benchmark
# workload: scripts/sigprof.c (an LD_PRELOAD SIGPROF sampler) plus
# `addr2line -i`. Always prints the top-25 innermost functions and the
# top-40 inclusive ones (share of samples with the function anywhere on
# the stack, once per sample); each LABEL=REGEX adds a row. E.g. `just
# profile HEAD edge_fanout 8 'queue=queue\.rs' 'radix=^sort_bucket<'`.
profile rev workload *rest:
    bash scripts/profile.sh {{rev}} {{workload}} {{rest}}
