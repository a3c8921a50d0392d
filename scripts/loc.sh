#!/usr/bin/env bash
# Counts the workspace's non-test lines: every line under scripts/, plus the
# .rs and .toml lines under crates/, leaving out tests/ directories, the
# test-only reference.rs modules and each file's trailing
# `#[cfg(test)] mod tests`.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

scripts=$(cat scripts/* | wc -l)

# A `#[cfg(test)]` line is held back until the next line shows whether it
# opens the trailing `mod tests`, which ends the file's count.
crates=$(find crates \( -name '*.rs' -o -name '*.toml' \) \
    -not -path '*/tests/*' -not -name reference.rs -print0 |
  xargs -0 awk '
    FNR == 1 { n += held; held = 0; skip = 0 }
    skip { next }
    held && /^mod tests \{/ { held = 0; skip = 1; next }
    { n += held; held = 0 }
    /^#\[cfg\(test\)\]$/ { held = 1; next }
    { n++ }
    END { print n + held }')

echo "scripts/: $scripts"
echo "crates/:  $crates"
echo "non-test lines: $((scripts + crates))"
