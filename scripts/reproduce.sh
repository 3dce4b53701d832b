#!/usr/bin/env bash
# Regenerate every paper table/figure at full paper scale, refresh
# results/*.csv, and run the self-verifying reproduction audit.
#
# Usage: scripts/reproduce.sh [small|paper]   (default: paper)
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-paper}"
export FAASRAIL_SCALE="$SCALE"
echo "== building (release) =="
cargo build --release -p faasrail-bench --bins

mkdir -p results
BINS=(table1 fig01 fig03 fig04 fig06 fig07 fig08 fig09 fig10 fig11 fig12 \
      abl_threshold abl_balance abl_timescaling abl_memory abl_burstiness \
      abl_suites abl_loop_mode)
for bin in "${BINS[@]}"; do
    echo "== $bin ($SCALE scale) =="
    ./target/release/"$bin" > "results/$bin.csv"
    grep '^#' "results/$bin.csv" | sed 's/^/   /'
done

echo "== reproduction audit =="
./target/release/check_repro
