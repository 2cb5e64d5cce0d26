#!/usr/bin/env bash
# Non-test line count of the workspace's own crates, as a Markdown table:
# for every *.rs under crates/*/src, the lines above the first
# `#[cfg(test)]` (the whole file when there is none), then a sum per crate
# and the workspace total. This is the measure CHANGES.md quotes for every
# "negative line count" claim; `crates/compat/*` (vendored stand-ins) is
# not under crates/*/src and is not counted.
#
#   scripts/nontest_loc.sh            # this checkout
#   scripts/nontest_loc.sh ../parent  # another checkout, to diff against
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

echo "| file | non-test lines |"
echo "|---|---:|"
total=0
for src in crates/*/src; do
    sum=0
    while IFS= read -r f; do
        n=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$f")
        echo "| \`$f\` | $n |"
        sum=$((sum + n))
    done < <(find "$src" -name '*.rs' | LC_ALL=C sort)
    echo "| **${src%/src}** | **$sum** |"
    total=$((total + sum))
done
echo "| **workspace** | **$total** |"
