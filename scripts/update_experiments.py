#!/usr/bin/env python3
"""Extract the `#`-comment summaries from results/*.csv into a compact
paper-vs-measured digest (results/SUMMARY.txt). EXPERIMENTS.md cites these
numbers; regenerate with scripts/reproduce.sh and re-run this script to
refresh the digest after changing generators or the pipeline."""

import glob
import os

os.chdir(os.path.join(os.path.dirname(__file__), ".."))
lines = []
for path in sorted(glob.glob("results/*.csv")):
    lines.append(f"== {os.path.basename(path)} ==")
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                lines.append("  " + line[1:].strip())
with open("results/SUMMARY.txt", "w") as f:
    f.write("\n".join(lines) + "\n")
print(f"wrote results/SUMMARY.txt ({len(lines)} lines)")
