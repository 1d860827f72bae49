#!/usr/bin/env bash
# ab.sh — paired A/B runs of the repository benchmark (BENCHMARK.json).
#
# Runs alternating pairs of `benchmark/run.sh` on a base commit and on
# this checkout as it stands, uncommitted edits included, swapping which
# side runs first each pair, and prints one JSON document (scripts/abstat):
# per workload and end-to-end metric the medians, quartiles, pairs won and
# a verdict of improved, unchanged, worse or unresolved against the bounds
# BENCHMARK.json fixes, and the medians and quartiles of each dotted
# diagnostic a run prints (loadgen.ops_per_s, loadgen.fetch_p50_us, …),
# which have no bound and get no verdict.
#
# Usage: scripts/ab.sh [-w WORKLOAD[:PAIRS],...] [-d WORKDIR] <base-ref>
#
#   -w  workloads, each with its own pair count (default: all four, and
#       10 pairs for a workload named without a count)
#   -d  where the base copy and the raw result lines go (default: a new
#       temporary directory, kept and named on standard error)
#
# Every run lasts BENCHMARK.json's run_seconds. The base is a `git
# archive` copy of <base-ref>, built by its own run.sh. Progress goes to
# standard error.
set -euo pipefail

usage() {
    sed -n '2,22p' "$0" >&2
    exit 2
}

root="$(cd "$(dirname "$0")/.." && pwd)"
workloads="client_hot,server_rw,cluster3,sim_sweep"
pairs=10
work=""
while getopts "w:d:" opt; do
    case "$opt" in
    w) workloads="$OPTARG" ;;
    d) work="$OPTARG" ;;
    *) usage ;;
    esac
done
shift $((OPTIND - 1))
if [ $# -ne 1 ]; then
    usage
fi
seconds=$(awk -F: '/"run_seconds"/ { gsub(/[ ,]/, "", $2); print $2 }' "$root/BENCHMARK.json")
if [ -z "$work" ]; then
    work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
fi
mkdir -p "$work"

base_name="$1 ($(git -C "$root" rev-parse --short "$1^{commit}"))"
head_name="working tree on $(git -C "$root" rev-parse --short HEAD)"
rm -rf "$work/base"
mkdir -p "$work/base"
git -C "$root" archive "$1" | tar -x -C "$work/base"
echo "ab: base $base_name, head $head_name, ${seconds} s runs, results in $work" >&2

# one SIDE WORKLOAD: one run. Its JSON result line is appended to
# WORKLOAD.SIDE.jsonl and its dotted diagnostics, as one JSON object, to
# WORKLOAD.SIDE.diag.jsonl. A run that fails still leaves its line
# (correct false, failures counted) when it got as far as printing one.
one() {
    local dir="$work/base" out line
    [ "$1" = head ] && dir="$root"
    out=$(cd "$dir" && bash benchmark/run.sh --workload "$2" --seconds "$seconds" 2>&1) || true
    line=$(printf '%s\n' "$out" | tail -n 1)
    case "$line" in
    '{'*) printf '%s\n' "$line" >>"$work/$2.$1.jsonl" ;;
    *)
        printf '%s\n' "$out" >&2
        echo "ab: $1 $2 run printed no result line" >&2
        exit 1
        ;;
    esac
    printf '%s\n' "$out" | awk '
        NF == 3 && $1 ~ /^[a-z_]+\.[a-z0-9_]+$/ && $2 ~ /^[-0-9.e+]+$/ {
            printf "%s\"%s\":%s", (n++ ? "," : "{"), $1, $2
        }
        END { print (n ? "}" : "{}") }' >>"$work/$2.$1.diag.jsonl"
}

names=()
IFS=',' read -r -a specs <<<"$workloads"
for spec in "${specs[@]}"; do
    w="${spec%%:*}"
    n="$pairs"
    [ "$spec" != "$w" ] && n="${spec#*:}"
    names+=("$w")
    rm -f "$work/$w".{base,head}{,.diag}.jsonl
    for ((i = 1; i <= n; i++)); do
        if ((i % 2)); then first=base second=head; else first=head second=base; fi
        echo "ab: $w pair $i/$n: $first, then $second" >&2
        one "$first" "$w"
        one "$second" "$w"
    done
done

(cd "$root" && go run ./scripts/abstat -bench "$root/BENCHMARK.json" -dir "$work" \
    -base "$base_name" -head "$head_name" "${names[@]}")
