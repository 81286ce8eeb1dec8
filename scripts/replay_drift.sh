#!/usr/bin/env sh
# Decision-log replay drift gate. Replays the committed golden planted
# workload log, then records a fresh deterministic multi-epoch planted log
# and replays that too. atmem_replay exits 3 when the replayed Eq. 1-5
# selection differs from the recorded placements by even one chunk, which
# fails the script: an analyzer change that moves placements fails here
# the same way it fails in replay_tests.
#
# Usage: scripts/replay_drift.sh [build-dir]   (default: build)
set -eu

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
RECORDER="$REPO_ROOT/$BUILD_DIR/examples/planted_recorder"
REPLAY="$REPO_ROOT/$BUILD_DIR/tools/atmem_replay"
WORK="$REPO_ROOT/$BUILD_DIR/replay_drift"
# The planted workload's stable hot block (64 chunks) plus two: tight
# enough that selection order decides the next-epoch hit fraction.
BUDGET=$((66 * 4096))

for BIN in "$RECORDER" "$REPLAY"; do
  if [ ! -x "$BIN" ]; then
    echo "replay_drift: $BIN not built" >&2
    exit 1
  fi
done
mkdir -p "$WORK"

echo "replay_drift: replaying committed golden log"
"$REPLAY" "$REPO_ROOT/tests/golden/planted_hotset.atdl" --budget "$BUDGET"

echo "replay_drift: recording fresh planted workload"
"$RECORDER" --out "$WORK/planted.atdl" --epochs 8 --seed 42 > /dev/null

echo "replay_drift: drift-checking the fresh log"
"$REPLAY" "$WORK/planted.atdl" --budget "$BUDGET"

echo "replay_drift: no drift"
