#!/usr/bin/env bash
# Builds the campaign benchmark into build/benchmark/ (outside any timed
# region) and runs it from the repository root.
#
#   benchmark/run.sh --workload resnet-prior --seed 1 --seconds 20 --trace 0
#   benchmark/run.sh --workload resnet-prior --seed 1 --seconds 20 --trace 1
#   benchmark/run.sh --smoke --workload mlp-checkpointed --seed 1 \
#       --seconds 1 --trace 0
#   benchmark/run.sh --repeat 5 [--out FILE]
#
# Build output goes to stderr: the last line of stdout is the result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build/benchmark"
jobs="$(nproc)"
if (( jobs > 4 )); then jobs=4; fi

{
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" -j "$jobs" --target campaign_bench
} 1>&2

cd "$root"
for arg in "$@"; do
  case "$arg" in
    --repeat|--repeat=*)
      exec python3 "$here/repeat.py" --binary "$build/campaign_bench" "$@" ;;
  esac
done
exec "$build/campaign_bench" "$@"
