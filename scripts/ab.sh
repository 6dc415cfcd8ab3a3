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
# side that goes first alternates. Every end-to-end metric of
# BENCHMARK.json (`units_per_s`, `peak_rss_bytes`, `setup_s`, all from the
# same runs) is printed on each pair's line; then each side's median and
# quartiles per metric, how many pairs B won per metric in the direction
# its `better` field gives (a tie counts for neither side), and any run
# whose digest checks failed. PAIRS defaults to 10, SECONDS to
# BENCHMARK.json's `run_seconds`, SEED to the benchmark's pinned default
# seed.
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

# The end-to-end metrics, their `better` directions and units, in
# BENCHMARK.json's order.
mapfile -t metrics < <(jq -r '.end_to_end[].name' "$root/BENCHMARK.json")
mapfile -t better < <(jq -r '.end_to_end[].better' "$root/BENCHMARK.json")
mapfile -t units < <(jq -r '.end_to_end[].unit' "$root/BENCHMARK.json")
nmetrics=${#metrics[@]}

# Decimals a value of metric $1 is printed with.
decimals() {
    case ${units[$1]} in
    bytes) echo 0 ;;
    s) echo 3 ;;
    *) echo 1 ;;
    esac
}

# One pinned run of revision $1; prints every metric's value, in
# `metrics` order, then the run's failed digest count.
run() {
    local out result
    out=$(cd "$exports/$1" && "${pin[@]}" "$root/target/ab/$1/release/benchmark" \
        --workload "$workload" --seconds "$seconds" ${seed:+--seed "$seed"}) || true
    result=$(tail -n 1 <<<"$out" | jq -r --args '.metrics as $m |
        [($ARGS.positional[] | $m[.].value), .failed] | map(tostring) | join(" ")' \
        "${metrics[@]}" 2>/dev/null) || result=
    [ -n "$result" ] || result="$(printf '0 %.0s' "${metrics[@]}")crashed"
    echo "$result"
}

prepare "$sha_a"
[ "$sha_b" = "$sha_a" ] || prepare "$sha_b"

echo "A = ${sha_a:0:12} ($1), B = ${sha_b:0:12} ($2)"
echo "$workload: $pairs pairs of ${seconds} s runs, seed ${seed:-default}"
# values[side,metric,pair]
declare -A values
failures=()
for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then order=(A B); else order=(B A); fi
    for side in "${order[@]}"; do
        if [ "$side" = A ]; then sha=$sha_a; else sha=$sha_b; fi
        read -r -a run_out < <(run "$sha")
        for ((k = 0; k < nmetrics; k++)); do
            values[$side,$k,$i]=${run_out[k]}
        done
        [ "${run_out[nmetrics]}" = 0 ] ||
            failures+=("pair $((i + 1)) $side: failed ${run_out[nmetrics]}")
    done
    line=$(printf 'pair %2d (%s first):' $((i + 1)) "${order[0]}")
    for ((k = 0; k < nmetrics; k++)); do
        line+=$(awk -v name="${metrics[k]}" -v d="$(decimals "$k")" \
            -v a="${values[A,$k,$i]}" -v b="${values[B,$k,$i]}" \
            'BEGIN { f = "%." d "f"; printf "  %s A " f " B " f " B/A %.3f", name, a, b, (a != 0 ? b / a : 0) }')
    done
    echo "$line"
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
for ((k = 0; k < nmetrics; k++)); do
    for side in A B; do
        column=()
        for ((i = 0; i < pairs; i++)); do column+=("${values[$side,$k,$i]}"); done
        printf '%s %-16s %s\n' "$side" "${metrics[k]}:" "$(summary "$(decimals "$k")" "${column[@]}")"
    done
done
for ((k = 0; k < nmetrics; k++)); do
    won=0
    ties=0
    for ((i = 0; i < pairs; i++)); do
        a=${values[A,$k,$i]}
        b=${values[B,$k,$i]}
        if awk -v a="$a" -v b="$b" 'BEGIN { exit !(a == b) }'; then
            ties=$((ties + 1))
        elif awk -v a="$a" -v b="$b" -v dir="${better[k]}" \
            'BEGIN { exit !(dir == "higher" ? b > a : b < a) }'; then
            won=$((won + 1))
        fi
    done
    echo "pairs won by B on ${metrics[k]} (${better[k]} is better): $won of $pairs ($ties tied)"
done
if [ ${#failures[@]} -eq 0 ]; then
    echo "runs with failed > 0: none"
else
    printf 'runs with failed > 0: %s\n' "${failures[@]}"
fi
