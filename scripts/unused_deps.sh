#!/usr/bin/env bash
# Fails when a workspace crate's manifest lists a dependency the crate's
# code never names:
#
# * a `[dependencies]` entry no non-test source line names (the lines of
#   src/**/*.rs above the first `#[cfg(test)]`, as scripts/nontest_loc.sh
#   counts them), or
# * a `[dev-dependencies]` entry no line of the crate names (src/, tests/,
#   examples/ and benches/).
#
# "Names" means the crate's identifier (`hpm-core` → `hpm_core`) appears as
# a word outside a `//` comment, so a doc comment that mentions a crate
# does not keep it in the manifest. Checks the root package and every
# workspace member listed in Cargo.toml; prints each unused entry and
# exits 1 if there is one.
#
#   scripts/unused_deps.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# The keys of manifest $1's section [$2], one per line.
deps() {
    awk -v want="[$2]" '
        /^[[:space:]]*\[/ { sub(/[[:space:]]+$/, ""); on = ($0 == want); next }
        on && /^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*[.=]/ {
            sub(/^[[:space:]]*/, "")
            sub(/[[:space:].=].*/, "")
            print
        }
    ' "$1"
}

# The code of crate directory $1 with `//` comments dropped: its non-test
# source lines when $2 is `nontest`, every line of src/, tests/, examples/
# and benches/ otherwise.
code() {
    local dirs=("$1/src")
    if [ "$2" != nontest ]; then
        dirs+=("$1/tests" "$1/examples" "$1/benches")
    fi
    local d f
    for d in "${dirs[@]}"; do
        [ -d "$d" ] || continue
        while IFS= read -r f; do
            if [ "$2" = nontest ]; then
                awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } { sub(/\/\/.*/, ""); print }' "$f"
            else
                awk '{ sub(/\/\/.*/, ""); print }' "$f"
            fi
        done < <(find "$d" -name '*.rs' | LC_ALL=C sort)
    done
}

members=(.)
while IFS= read -r m; do
    members+=("$m")
done < <(sed -n '/^members = \[/,/^\]/p' Cargo.toml | grep -o '"[^"]*"' | tr -d '"')

unused=0
for crate in "${members[@]}"; do
    manifest=$crate/Cargo.toml
    for section in dependencies dev-dependencies; do
        scope=all where=anywhere
        if [ "$section" = dependencies ]; then scope=nontest where="in non-test code"; fi
        text=$(code "$crate" "$scope")
        while IFS= read -r dep; do
            [ -n "$dep" ] || continue
            ident=${dep//-/_}
            if ! grep -qw -- "$ident" <<< "$text"; then
                echo "$manifest: [$section] $dep is never named $where"
                unused=1
            fi
        done < <(deps "$manifest" "$section")
    done
done
if [ "$unused" = 0 ]; then
    echo "every dependency of ${#members[@]} manifests is named in its crate's code"
fi
exit "$unused"
