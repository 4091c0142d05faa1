#!/usr/bin/env bash
# Count the lines of code the diet PRs compare: per Rust file, everything
# before the first `#[cfg(test)]`, minus blank lines and `//` comment lines.
# A directory argument counts its own `*.rs` files, not its subdirectories
# (`src/bin/` is outside the serving core the diet targets).
# Usage: scripts/loc.sh [dir-or-file ...]   (default: crates/elephant-server/src)
set -euo pipefail
cd "$(dirname "$0")/.."
[ "$#" -gt 0 ] || set -- crates/elephant-server/src
find "$@" -maxdepth 1 -name '*.rs' -print0 | sort -z | xargs -0 awk '
    function flush() { if (file != "") printf "%6d  %s\n", count, file }
    FNR == 1 { flush(); file = FILENAME; count = 0; in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    { count++; total++ }
    END { flush(); printf "%6d  total\n", total }'
