#!/usr/bin/env bash
# Prints the digest of one workload's simulated statistics (golden cycles
# and retired counts per cell, every campaign's tallies) at any commit whose
# public API this benchmark builds against:
#
#   bash studybench/digest_at.sh <commit> <workload> <seed>
#
# It exports <commit> into .studybench-work/ under the repository root,
# puts this benchmark beside it, builds it there and runs `digest`, which
# also requires the layer run to reproduce the end-to-end cells exactly.
# Two commits whose digest lines match simulated identical statistics.
set -euo pipefail
if [ $# -ne 3 ]; then
    echo "usage: $0 <commit> <workload> <seed>" >&2
    exit 2
fi
commit=$1 workload=$2 seed=$3
here=$(cd "$(dirname "$0")" && pwd)
root=$(git -C "$here" rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --short "$commit^{commit}")
dir="$root/.studybench-work/digest-$rev-$$"
trap 'rm -rf "$dir"; rmdir "$root/.studybench-work" 2>/dev/null || true' EXIT
mkdir -p "$dir"
git -C "$root" archive "$rev" | tar -x -C "$dir"
rm -rf "$dir/studybench"
mkdir "$dir/studybench"
tar -C "$here" --exclude=./target -c . | tar -x -C "$dir/studybench"
cd "$dir"
CARGO_TARGET_DIR="$dir/.bench_build" cargo run --release --offline --quiet \
    --manifest-path studybench/Cargo.toml -- digest --workload "$workload" --seed "$seed"
