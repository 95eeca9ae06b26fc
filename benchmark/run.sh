#!/usr/bin/env bash
# Build and run the refsched benchmark; see benchmark/README.md.
#   benchmark/run.sh [--seed S] [--trace] [--smoke] [--out FILE]
#   benchmark/run.sh --workload NAME --seed S --seconds N --trace 0|1
set -euo pipefail
exec python3 "$(dirname "$0")/run.py" "$@"
