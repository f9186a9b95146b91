#!/usr/bin/env sh
# Untraced sampling profile of one perfbench workload.
#
#   scripts/profile.sh <workload> [seconds]      (default 240 s, seed 411)
#
# Builds perfbench, runs its binary untraced (`--trace 0`) under
# `gprofng collect app -p hi`, and prints the top functions by inclusive
# CPU time. The experiment directory is kept; its path is printed last,
# for further `gprofng display text` queries.
#
# Why untraced: the traced run (`--trace 1`) times every alias query, and
# its timers inflate a `paper_cold` round 1.5-1.6x; costs with no span of
# their own (predecessor lists rebuilt per `LoopForest::preheader` call,
# SipHash on id-keyed maps, the Fig. 6 machine lowering on probe
# compiles) do not show in it at all. This profile, not the traced run,
# found those hot spots.
#
# Sample budget: on a shared 2-vCPU virtual machine `-p hi` delivered
# only ~10 samples/s, so 240 s gave ~2,400 samples. A short run names
# only the largest costs.
#
# Exits 0 with a message when gprofng (GNU binutils) is not installed.
set -eu
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
    echo "usage: scripts/profile.sh <paper_cold|gen_j2|served_warm> [seconds]" >&2
    exit 2
fi
WORKLOAD="$1"
SECONDS_RUN="${2:-240}"

if ! command -v gprofng > /dev/null 2>&1; then
    echo "profile.sh: gprofng not found (it ships with GNU binutils); nothing profiled"
    exit 0
fi

cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
BIN="${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench"

OUT="$(mktemp -d)"
EXP="$OUT/perfbench.er"
gprofng collect app -p hi -o "$EXP" \
    "$BIN" --workload "$WORKLOAD" --seed 411 --seconds "$SECONDS_RUN" --trace 0
gprofng display text -limit 40 -metrics i.totalcpu:e.totalcpu -sort i.totalcpu \
    -functions "$EXP"
echo "experiment: $EXP"
