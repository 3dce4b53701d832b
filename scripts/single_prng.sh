#!/usr/bin/env bash
# The workspace's randomness is defined once, in crates/stats/src/rng.rs, and
# its locks and channels are std's. Fail if the splitmix64 finalizer turns up
# in a non-test line of any other source file, or if a manifest outside
# benchmark/ names one of the crates that used to supply either; then print
# what rng.rs weighs (lines above its `#[cfg(test)]`).
set -euo pipefail
cd "$(dirname "$0")/.."

nontest() { awk '/#\[cfg\(test\)\]/ { exit } { print }' "$1"; }

owner=crates/stats/src/rng.rs
fail=0
while IFS= read -r file; do
    [ "$file" = "$owner" ] && continue
    if nontest "$file" | grep -niE 'BF58_?476D_?1CE4_?E5B9'; then
        echo "error: $file: the splitmix64 finalizer belongs in $owner" >&2
        fail=1
    fi
done < <(git ls-files -- '*.rs' | grep -v -e '^benchmark/' -e '\(^\|/\)tests/')

while IFS= read -r manifest; do
    if grep -nE '^[[:space:]]*(rand|crossbeam|parking_lot|bytes|criterion)([[:space:]]|\.|=)' "$manifest"; then
        echo "error: $manifest: randomness is faasrail_stats::rng, locks and channels are std::sync" >&2
        fail=1
    fi
done < <(git ls-files -- '*Cargo.toml' | grep -v '^benchmark/')

printf '%6d non-test lines %s\n' "$(nontest "$owner" | wc -l)" "$owner"
exit "$fail"
