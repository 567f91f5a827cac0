#!/usr/bin/env bash
# Prints the non-test Rust line count of the workspace: for every `.rs`
# file under `crates/*/src` and `src/`, the lines before its first
# `#[cfg(test)]`. Given a git rev, counts that commit instead of the
# working tree, so comparing a change with its parent is one run each:
#
#   bash scripts/loc.sh           # working tree
#   bash scripts/loc.sh HEAD~1    # any commit
set -euo pipefail
cd "$(dirname "$0")/.."

count() { awk '/#\[cfg\(test\)\]/ { seen = 1 } !seen { n++ } END { print n + 0 }'; }

rev="${1:-}"
total=0
if [ -n "$rev" ]; then
    for f in $(git ls-tree -r --name-only "$rev" -- crates src | grep -E '^(crates/[^/]+/)?src/.*\.rs$'); do
        total=$((total + $(git show "$rev:$f" | count)))
    done
else
    for f in $(find crates/*/src src -name '*.rs'); do
        total=$((total + $(count <"$f")))
    done
fi
echo "$total"
