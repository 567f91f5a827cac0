#!/usr/bin/env bash
# Prints every end-to-end and per-layer metric, by name and with its unit,
# for each workload: one untraced and one traced run per workload.
# Run from the repository root:
#
#   bash wirebench/report.sh [seed] [seconds]
set -euo pipefail
seed="${1:-1}"
seconds="${2:-10}"
for workload in dup_hits cold_kernel union_cert; do
  for trace in 0 1; do
    bash wirebench/run.sh --workload "$workload" --seed "$seed" \
      --seconds "$seconds" --trace "$trace" | sed '$d'
  done
done
