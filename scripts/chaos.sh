#!/usr/bin/env sh
# Chaos smoke for the probe sandbox (see docs/ARCHITECTURE.md §6).
#
# Runs the full 16-configuration suite under a deterministic
# fault-injection plan for a fixed seed matrix. At --jobs 1 the fault
# stream is part of the run's definition, so two runs with the same
# seed must produce byte-identical reports — including the sandbox
# failure counters and the fault summary. A final --jobs 4 pass with a
# probe deadline is a completion/safety smoke only (the fault stream
# interleaves across case threads there).
set -eu
cd "$(dirname "$0")/.."

BIN=target/release/oraql
[ -x "$BIN" ] || cargo build --release --offline --workspace

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

for seed in 1 42 1337; do
    plan="seed=$seed,compile-panic=1/16,vm-trap=1/24,vm-fuel-lie=1/24,probe-delay=1/32,output-garble=1/24,store-read-corrupt=1/16"
    "$BIN" --all --fault-plan "$plan" > "$TMP/run_a.txt"
    "$BIN" --all --fault-plan "$plan" > "$TMP/run_b.txt"
    # Byte-identical, and the injector actually fired something.
    cmp "$TMP/run_a.txt" "$TMP/run_b.txt"
    grep -q '^--- fault injection' "$TMP/run_a.txt"
    grep -Eq 'total faults fired: [1-9]' "$TMP/run_a.txt"
    echo "chaos: seed=$seed deterministic"
done

# Parallel completion smoke: four cases probe at once and injected
# hangs are cut by the watchdog; the suite must still finish with every
# case verified (non-zero exit otherwise).
"$BIN" --all --jobs 4 \
    --fault-plan "seed=7,compile-panic=1/12,vm-trap=1/16,probe-hang=1/64" \
    --probe-deadline-ms 500 > "$TMP/par.txt"
grep -q '^--- fault injection' "$TMP/par.txt"
echo "chaos: parallel smoke OK"
