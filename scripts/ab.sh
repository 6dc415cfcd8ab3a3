#!/usr/bin/env bash
# Alternated A/B pairs of the repo benchmark between two revisions
# (choosing-metrics §8):
#
#   scripts/ab.sh REV_A REV_B WORKLOAD [PAIRS] [SECONDS] [SEED]
#
# Each revision is exported with `git archive` into a temporary directory
# (no worktree, nothing written to the checkout but target/ab/), and its
# `benchmark/` binary is built once into target/ab/<sha>/ and reused by
# later invocations. Every pair runs both binaries under the allocator pin
# of BENCHMARK.json's `command`, each from its own export root, and the
# side that goes first alternates. Prints each side's median and
# quartiles of every end-to-end metric (`units_per_s`, `peak_rss_bytes`,
# `setup_s`, all from the same runs), how many pairs B won on
# `units_per_s`, and any run whose digest checks failed. PAIRS defaults to 10, SECONDS to BENCHMARK.json's
# `run_seconds`, SEED to the benchmark's pinned default seed.
set -euo pipefail

usage() {
    echo "usage: scripts/ab.sh REV_A REV_B WORKLOAD [PAIRS] [SECONDS] [SEED]" >&2
    echo "workloads: graph_build usage_replay edge_fanout live_sessions" >&2
    exit 2
}

[ $# -ge 3 ] && [ $# -le 6 ] || usage
root=$(cd "$(dirname "$0")/.." && pwd)
workload=$3
pairs=${4:-10}
seconds=${5:-$(jq -r .run_seconds "$root/BENCHMARK.json")}
seed=${6:-}
case $workload in
graph_build | usage_replay | edge_fanout | live_sessions) ;;
*) usage ;;
esac
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
[[ $seconds =~ ^[0-9]+([.][0-9]+)?$ ]] || usage
[[ -z $seed || $seed =~ ^(0x[0-9a-fA-F]+|[0-9]+)$ ]] || usage
sha_a=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") || usage
sha_b=$(git -C "$root" rev-parse --verify --quiet "$2^{commit}") || usage

# The `env VAR=… …` prefix of the pinned command, without its `cargo run`.
mapfile -t pin < <(jq -r '.command | .[:index("cargo")][]' "$root/BENCHMARK.json")

exports=$(mktemp -d)
trap 'rm -rf "$exports"' EXIT

# Exports revision $1 and builds its benchmark unless target/ab/$1 has it.
prepare() {
    mkdir -p "$exports/$1"
    git -C "$root" archive "$1" | tar -x -C "$exports/$1"
    if [ ! -x "$root/target/ab/$1/release/benchmark" ]; then
        echo "building benchmark at ${1:0:12} into target/ab/$1" >&2
        cargo build --release --quiet --offline \
            --manifest-path "$exports/$1/benchmark/Cargo.toml" \
            --target-dir "$root/target/ab/$1"
    fi
}

# One pinned run of revision $1; prints
# "units_per_s peak_rss_bytes setup_s failed".
run() {
    local out result
    out=$(cd "$exports/$1" && "${pin[@]}" "$root/target/ab/$1/release/benchmark" \
        --workload "$workload" --seconds "$seconds" ${seed:+--seed "$seed"}) || true
    result=$(tail -n 1 <<<"$out" | jq -r '.metrics as $m |
        "\($m.units_per_s.value) \($m.peak_rss_bytes.value) \($m.setup_s.value) \(.failed)"' \
        2>/dev/null) || result=
    echo "${result:-0 0 0 crashed}"
}

prepare "$sha_a"
[ "$sha_b" = "$sha_a" ] || prepare "$sha_b"

echo "A = ${sha_a:0:12} ($1), B = ${sha_b:0:12} ($2)"
echo "$workload: $pairs pairs of ${seconds} s runs, seed ${seed:-default}"
a_values=()
b_values=()
a_rss=()
b_rss=()
a_setup=()
b_setup=()
failures=()
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        read -r a a_mem a_set a_failed < <(run "$sha_a")
        read -r b b_mem b_set b_failed < <(run "$sha_b")
        first=A
    else
        read -r b b_mem b_set b_failed < <(run "$sha_b")
        read -r a a_mem a_set a_failed < <(run "$sha_a")
        first=B
    fi
    a_values+=("$a")
    b_values+=("$b")
    a_rss+=("$a_mem")
    b_rss+=("$b_mem")
    a_setup+=("$a_set")
    b_setup+=("$b_set")
    [ "$a_failed" = 0 ] || failures+=("pair $((i + 1)) A: failed $a_failed")
    [ "$b_failed" = 0 ] || failures+=("pair $((i + 1)) B: failed $b_failed")
    printf 'pair %2d (%s first): A %14.1f  B %14.1f  B/A %.3f\n' \
        $((i + 1)) "$first" "$a" "$b" "$(awk -v a="$a" -v b="$b" 'BEGIN { print b / a }')"
done

# Median and quartiles (linear interpolation between order statistics)
# of the values after $1, printed with $1 decimals.
summary() {
    local decimals=$1
    shift
    printf '%s\n' "$@" | sort -g | awk -v d="$decimals" '
        { x[NR - 1] = $1 }
        function q(p,   h, lo) { h = (NR - 1) * p; lo = int(h); return x[lo] + (h - lo) * (x[lo + 1] - x[lo]) }
        END { f = "%." d "f"; printf "median " f "  q1 " f "  q3 " f "  iqr " f, q(0.5), q(0.25), q(0.75), q(0.75) - q(0.25) }'
}
echo "A units_per_s:    $(summary 1 "${a_values[@]}")"
echo "B units_per_s:    $(summary 1 "${b_values[@]}")"
echo "A peak_rss_bytes: $(summary 0 "${a_rss[@]}")"
echo "B peak_rss_bytes: $(summary 0 "${b_rss[@]}")"
echo "A setup_s:        $(summary 3 "${a_setup[@]}")"
echo "B setup_s:        $(summary 3 "${b_setup[@]}")"
won=0
ties=0
for ((i = 0; i < pairs; i++)); do
    if awk -v a="${a_values[i]}" -v b="${b_values[i]}" 'BEGIN { exit !(b > a) }'; then
        won=$((won + 1))
    elif awk -v a="${a_values[i]}" -v b="${b_values[i]}" 'BEGIN { exit !(b == a) }'; then
        ties=$((ties + 1))
    fi
done
echo "pairs won by B: $won of $pairs ($ties tied)"
if [ ${#failures[@]} -eq 0 ]; then
    echo "runs with failed > 0: none"
else
    printf 'runs with failed > 0: %s\n' "${failures[@]}"
fi
