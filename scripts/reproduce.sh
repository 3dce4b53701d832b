#!/usr/bin/env bash
# Regenerate every paper table/figure at full paper scale from one set of
# inputs, refresh results/*.csv and results/SUMMARY.txt, and run the
# self-verifying reproduction audit.
#
# Usage: scripts/reproduce.sh [small|paper]   (default: paper)
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -p faasrail-bench --bin repro
FAASRAIL_SCALE="${1:-paper}" ./target/release/repro all results
