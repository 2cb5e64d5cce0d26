#!/usr/bin/env bash
# Alternated parent/change pairs of the repo benchmark (benchmark/run.sh)
# on one workload, the form every perf claim in CHANGES.md is made in.
#
#   scripts/bench_pairs.sh PARENT_REV WORKLOAD [PAIRS] [SECONDS]
#
# Exports PARENT_REV (`git archive`) and the working tree as it is on disk
# (tracked and untracked files, less what .gitignore excludes) into two
# temporary directories, and builds each with its own benchmark/run.sh
# and its own target directory. Pair k (1..PAIRS, default 10) runs one
# end-to-end run of SECONDS (default 10) on each side with seed k; the
# parent goes first in odd pairs, the change in even ones. Prints each
# pair's four end-to-end metrics, then per metric both sides' medians and
# quartiles and how many pairs the change won, tied and lost. WORKLOAD
# may be a comma-separated list; each gets its own PAIRS pairs over the
# same two builds. The checkout is left unchanged.
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 4 ]; then
    echo "usage: scripts/bench_pairs.sh PARENT_REV WORKLOAD[,WORKLOAD...] [PAIRS] [SECONDS]" >&2
    exit 2
fi
rev=$1
pairs=${3:-10}
seconds=${4:-10}
IFS=, read -r -a workloads <<< "$2"
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent" "$tmp/change"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
(
    cd "$root"
    git ls-files -z --cached --others --exclude-standard |
        while IFS= read -r -d '' f; do
            # A tracked file deleted on disk is not part of the change.
            if [ -e "$f" ]; then printf '%s\0' "$f"; fi
        done |
        tar --null -T - -cf -
) | tar -x -C "$tmp/change"

for side in parent change; do
    echo "building $side" >&2
    (cd "$tmp/$side" && CARGO_TARGET_DIR="$tmp/$side/benchmark/target" bash benchmark/run.sh spec > /dev/null)
done

metrics=(setup_s ops_per_s peak_mem_mb pred_rel_err)

# One end-to-end run: the four metrics of side $1, workload $2, seed $3,
# space-separated, from the JSON object run.sh prints last.
run() {
    local json
    json=$(cd "$tmp/$1" && CARGO_TARGET_DIR="$tmp/$1/benchmark/target" \
        bash benchmark/run.sh --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 2> /dev/null | tail -n 1)
    case $json in
    *'"correct": false'*) echo "the $1 run of $2, seed $3, failed its own checks" >&2 ;;
    esac
    local m v out=()
    for m in "${metrics[@]}"; do
        v=$(printf '%s\n' "$json" | sed -n "s/.*\"$m\": *{\"value\": *\([-0-9.eE+]*\).*/\1/p")
        if [ -z "$v" ]; then
            echo "no $m in the $1 run of $2, seed $3: ${json:-no output}" >&2
            exit 1
        fi
        out+=("$v")
    done
    echo "${out[*]}"
}

# Median and quartiles (linear interpolation) of the numbers on stdin.
quartiles() {
    sort -g | awk '{ v[NR] = $1 }
        function q(p,   h, l) { h = (NR - 1) * p + 1; l = int(h); return v[l] + (h - l) * (v[l + 1] - v[l]) }
        END { v[NR + 1] = v[NR]; printf "%.6g [%.6g–%.6g]", q(0.5), q(0.25), q(0.75) }'
}

for w in "${workloads[@]}"; do
    echo
    echo "## $w: $pairs pairs of $seconds s runs, parent $rev"
    echo
    echo "| pair | seed | first | parent ${metrics[*]} | change ${metrics[*]} |"
    echo "|---:|---:|---|---|---|"
    : > "$tmp/parent.$w" && : > "$tmp/change.$w"
    for k in $(seq 1 "$pairs"); do
        if [ $((k % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
        for side in $order; do
            run "$side" "$w" "$k" >> "$tmp/$side.$w"
        done
        echo "| $k | $k | ${order%% *} | $(tail -n 1 "$tmp/parent.$w") | $(tail -n 1 "$tmp/change.$w") |"
    done
    echo
    echo "| metric | parent median [quartiles] | change median [quartiles] | change won / tied / lost |"
    echo "|---|---|---|---|"
    for i in "${!metrics[@]}"; do
        m=${metrics[$i]}
        col=$((i + 1))
        higher=0
        if [ "$m" = ops_per_s ]; then higher=1; fi
        tally=$(paste -d ' ' <(cut -d ' ' -f "$col" "$tmp/parent.$w") <(cut -d ' ' -f "$col" "$tmp/change.$w") |
            awk -v higher="$higher" '{ d = higher ? $2 - $1 : $1 - $2; if (d > 0) w++; else if (d < 0) l++; else t++ }
                END { printf "%d / %d / %d", w, t, l }')
        echo "| $m | $(cut -d ' ' -f "$col" "$tmp/parent.$w" | quartiles) | $(cut -d ' ' -f "$col" "$tmp/change.$w" | quartiles) | $tally |"
    done
done
