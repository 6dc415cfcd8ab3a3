#!/usr/bin/env bash
# Sampled CPU profile of one repo-benchmark workload — the "where the time
# went" table:
#
#   scripts/profile.sh REV WORKLOAD [SECONDS] [LABEL=REGEX ...]
#
# The revision is exported with `git archive` (as scripts/ab.sh does) and
# its `benchmark/` binary built with line tables
# (CARGO_PROFILE_RELEASE_DEBUG=line-tables-only) into
# target/profile/<sha>/. scripts/sigprof.c, an LD_PRELOAD SIGPROF sampler
# kept outside the crates so their `unsafe_code = "forbid"` holds, is
# compiled next to it. One run of `--workload WORKLOAD --seconds SECONDS`
# (default 8) executes under the sampler and BENCHMARK.json's allocator
# pin; every sampled address is resolved with `addr2line -i`, so inlined
# frames count. Printed, as Markdown tables:
#
# * the share of samples per innermost (inlined) function, top 25;
# * for each LABEL=REGEX, the share of samples with any frame, inlined
#   ones included, that matches REGEX (an awk extended regex) as the line
#   "function @ file:line", e.g. 'heap=binary_heap' or
#   'radix=^sort_bucket<'.
#
# The sampler asks for one sample per 1 ms of CPU time; the kernel's timer
# tick may cap the rate (at 250 Hz, one per 4 ms). The whole process is
# sampled, setup and warm-ups included. Needs cc and addr2line.
set -euo pipefail

usage() {
    echo "usage: scripts/profile.sh REV WORKLOAD [SECONDS] [LABEL=REGEX ...]" >&2
    echo "workloads: graph_build usage_replay edge_fanout live_sessions" >&2
    exit 2
}

[ $# -ge 2 ] || usage
root=$(cd "$(dirname "$0")/.." && pwd)
sha=$(git -C "$root" rev-parse --verify --quiet "$1^{commit}") || usage
workload=$2
shift 2
case $workload in
graph_build | usage_replay | edge_fanout | live_sessions) ;;
*) usage ;;
esac
seconds=8
if [ $# -gt 0 ] && [[ $1 =~ ^[0-9]+([.][0-9]+)?$ ]]; then
    seconds=$1
    shift
fi
for label in "$@"; do
    [[ $label == ?*=?* ]] || usage
done

# The `env VAR=… …` prefix of the pinned command, without its `cargo run`.
mapfile -t pin < <(jq -r '.command | .[:index("cargo")][]' "$root/BENCHMARK.json")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
build="$root/target/profile/$sha"
git -C "$root" archive "$sha" | tar -x -C "$work"
if [ ! -x "$build/release/benchmark" ]; then
    echo "building benchmark at ${sha:0:12} with line tables into target/profile/$sha" >&2
    CARGO_PROFILE_RELEASE_DEBUG=line-tables-only cargo build --release --quiet --offline \
        --manifest-path "$work/benchmark/Cargo.toml" --target-dir "$build"
fi
cc -O2 -fPIC -shared -o "$build/libsigprof.so" "$root/scripts/sigprof.c"

(cd "$work" && "${pin[@]}" SIGPROF_OUT="$work/samples.txt" \
    LD_PRELOAD="$build/libsigprof.so" "$build/release/benchmark" \
    --workload "$workload" --seconds "$seconds" >/dev/null)
[ -f "$work/samples.txt" ] || {
    echo "the sampler wrote no output (see its message above)" >&2
    exit 1
}

# One `addr2line -a -f -i -C` per module over its distinct addresses.
while read -r _ index path; do
    grep '^S' "$work/samples.txt" | tr ' ' '\n' | grep "^$index:" | cut -d: -f2 | sort -u |
        sed 's/^/0x/' | addr2line -a -f -i -C -e "$path" >"$work/resolved.$index" 2>/dev/null ||
        true
done < <(grep '^M ' "$work/samples.txt")

echo "${sha:0:12} $workload, ${seconds} s"
# Emits "TOTAL n", "SELF count function" and "LABEL count name" lines.
LABELS=$(printf '%s\n' "$@") awk '
    BEGIN {
        n = split(ENVIRON["LABELS"], spec, "\n")
        for (i = 1; i <= n; i++) {
            if (spec[i] == "") continue
            eq = index(spec[i], "=")
            nlabels++
            name[nlabels] = substr(spec[i], 1, eq - 1)
            # A sample is its frames joined by newlines: anchors match
            # at each frame.
            re = substr(spec[i], eq + 1)
            sub(/^\^/, "(^|\n)", re)
            sub(/\$$/, "($|\n)", re)
            regex[nlabels] = re
        }
    }
    # Resolved addresses: "0x<addr>" opens a record, then one
    # (function, file:line) pair per inline level, innermost first; a
    # frame is kept as "function @ file:line".
    FILENAME ~ /\/resolved\.[0-9]+$/ {
        if ($0 ~ /^0x[0-9a-f]+$/) {
            addr = substr($0, 3)
            sub(/^0+/, "", addr)
            module = FILENAME
            sub(/.*\./, "", module)
            key = module ":" addr
            pair = 0
        } else if (pair++ % 2 == 0) {
            func = $0
        } else {
            # Not one ternary assignment: mawk creates the LHS element
            # before it evaluates the `in` test.
            frame = func " @ " $0
            line = (key in chain) ? chain[key] "\n" frame : frame
            chain[key] = line
        }
        next
    }
    /^S/ {
        total++
        funcs = ""
        for (i = 2; i <= NF; i++) {
            f = ($i in chain) ? chain[$i] : "??"
            funcs = funcs "\n" f
            if (i == 2) {
                leaf = f
                sub(/ @ .*/, "", leaf)
                self[leaf]++
            }
        }
        for (l = 1; l <= nlabels; l++) {
            if (funcs ~ regex[l]) hit[l]++
        }
    }
    END {
        print "TOTAL\t" total + 0
        for (f in self) print "SELF\t" self[f] "\t" f
        for (l = 1; l <= nlabels; l++) print "LABEL\t" hit[l] + 0 "\t" name[l]
    }
' "$work"/resolved.* "$work/samples.txt" >"$work/counts.tsv"

total=$(awk -F '\t' '$1 == "TOTAL" { print $2 }' "$work/counts.tsv")
[ "$total" -gt 0 ] || {
    echo "no samples" >&2
    exit 1
}
share() {
    awk -F '\t' -v total="$total" '{ printf "| %5.1f %% | %s |\n", 100 * $2 / total, $3 }'
}
printf '%s samples\n\n| share | innermost function |\n|---:|---|\n' "$total"
grep '^SELF' "$work/counts.tsv" | sort -t $'\t' -k2,2 -n -r | awk 'NR <= 25' | share
if [ $# -gt 0 ]; then
    printf '\n| share | label (any frame matches) |\n|---:|---|\n'
    grep '^LABEL' "$work/counts.tsv" | share
fi
