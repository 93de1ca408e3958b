#!/usr/bin/env bash
# Product line count: the lines of each `.rs` file up to its first
# `#[cfg(test)]`, with `crates/lint/fixtures` (the linter's test inputs)
# excluded. Prints one line per directory, then the total.
#
#   scripts/loc.sh [dir...]          # default: crates src
#   scripts/loc.sh crates/core/src crates/lint/src
#
# Directories are relative to the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
[[ $# -gt 0 ]] || set -- crates src

total=0
for dir in "$@"; do
    [[ -d "$dir" ]] || { echo "$0: no such directory: $dir" >&2; exit 2; }
    # `find -exec +` may split a long file list over several awk runs, so
    # each prints its own sum and the last awk adds them.
    lines=$(find "$dir" -name '*.rs' -not -path '*crates/lint/fixtures/*' \
        -exec awk '/^[[:space:]]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' {} + |
        awk '{ s += $1 } END { print s + 0 }')
    printf '%7d  %s\n' "$lines" "$dir"
    total=$((total + lines))
done
printf '%7d  total\n' "$total"
