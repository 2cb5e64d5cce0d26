#!/usr/bin/env bash
# Non-test line count of the workspace's own crates, as a Markdown table:
# for every *.rs under crates/*/src, the lines above the first
# `#[cfg(test)]` (the whole file when there is none), then a sum per crate
# and the workspace total. This is the measure CHANGES.md quotes for every
# "negative line count" claim; `crates/compat/*` (vendored stand-ins) is
# not under crates/*/src and is not counted.
#
#   scripts/nontest_loc.sh              # this checkout
#   scripts/nontest_loc.sh ../parent    # another checkout
#   scripts/nontest_loc.sh --delta REV  # per crate: REV, this checkout, Δ
#
# `--delta` extracts REV's crates/ with `git archive` into a temporary
# directory and counts both trees the same way.
set -euo pipefail

# Non-test lines of one file.
nontest() {
    awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"
}

# "crate lines" for every crate of the tree rooted at $1, sorted by name.
per_crate() {
    (
        cd "$1"
        for src in crates/*/src; do
            sum=0
            while IFS= read -r f; do
                sum=$((sum + $(nontest "$f")))
            done < <(find "$src" -name '*.rs' | LC_ALL=C sort)
            echo "${src%/src} $sum"
        done
    ) | LC_ALL=C sort
}

if [ "${1:-}" = "--delta" ]; then
    rev=${2:?usage: scripts/nontest_loc.sh --delta REV}
    root=$(cd "$(dirname "$0")/.." && pwd)
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' EXIT
    git -C "$root" archive "$rev" crates | tar -x -C "$tmp"
    echo "| crate | \`$rev\` | this checkout | Δ |"
    echo "|---|---:|---:|---:|"
    LC_ALL=C join -a 1 -a 2 -e 0 -o 0,1.2,2.2 <(per_crate "$tmp") <(per_crate "$root") |
        awk '{ printf "| `%s` | %d | %d | %+d |\n", $1, $2, $3, $3 - $2; b += $2; a += $3 }
             END { printf "| **workspace** | **%d** | **%d** | **%+d** |\n", b, a, a - b }'
    exit 0
fi

cd "${1:-$(dirname "$0")/..}"

echo "| file | non-test lines |"
echo "|---|---:|"
total=0
for src in crates/*/src; do
    sum=0
    while IFS= read -r f; do
        n=$(nontest "$f")
        echo "| \`$f\` | $n |"
        sum=$((sum + n))
    done < <(find "$src" -name '*.rs' | LC_ALL=C sort)
    echo "| **${src%/src}** | **$sum** |"
    total=$((total + sum))
done
echo "| **workspace** | **$total** |"
