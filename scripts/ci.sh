#!/usr/bin/env sh
# Tier-1 gate (see README.md "CI / tier-1 gate"): offline release build,
# full test suite, formatting, and lints with warnings denied. Run from
# the repo root; exits non-zero on the first failure.
set -eux

# `--workspace`: the root package is the default member, so a plain
# build would skip the `oraql` and `oraql-served` binaries the smokes
# below run.
cargo build --release --offline --workspace
# Every package's tests: the umbrella package's integration suites and
# each crate's unit and integration tests (a plain `cargo test` at the
# root runs only the umbrella package's). The by-name lines below repeat
# the gates that must never be skipped by a filtered invocation.
cargo test -q --offline --workspace
# The differential suite is the equivalence gate for the two interpreter
# modes (tree-walk reference vs. pre-decoded executor); run it by name so
# a filtered `cargo test` invocation can never silently skip it.
cargo test -q --offline --test differential_interp
# The VM gates again in release, the profile the `oraql` binary and
# perfbench run: integer overflow panics in debug builds and wraps in
# release ones, so an address-arithmetic bug behaves differently in the
# two.
cargo test --release -q --offline --test differential_interp
cargo test --release -q --offline -p oraql-vm
# The compile-path byte-identity gates, likewise by name: the 16
# configurations at jobs 1 against their golden (raw final decisions,
# effort, query counts, machine stats, final-module hash), and the
# per-instruction indexes of MemorySSA and dominance against a linear
# scan.
cargo test -q --offline --test suite_golden
cargo test -q --offline --test analysis_index
# The structural executable key against the printed text, by name:
# equal keys exactly when equal texts, over 122 probe compiles per
# configuration and a generated corpus.
cargo test -q --offline --test module_key
# The per-case template probe compiles start from, by name: every probe
# of the 16 configurations and a generated corpus compiled in full and
# through the template must give equal module text and unique counts,
# and a template that keeps a function that consulted the decisions
# must be caught.
cargo test -q --offline --test probe_reuse
# The CFG facts the pass manager keeps per function across passes
# (predecessors, RPO, dominators, the loop forest) against fresh ones
# after every pass, edge-editing passes included; the baseline compile
# also runs the module on the VM after every pass and verifies its
# output, naming the first pass that breaks it, by name.
cargo test -q --offline --test cfg_reuse
# The one edit path: seeded random batches of replacements, removals and
# moves, applied at once and one entry at a time, must agree, by name.
cargo test -q --offline --test edit_batches
# Minimality: flipping any single pessimistic decision of a final
# sequence breaks verification, on every workload and the CI gen plan,
# by name.
cargo test -q --offline --test driver_minimality
# The persistent verdict store's robustness gates (journal recovery,
# warm-run determinism), likewise by name.
cargo test -q --offline -p oraql-store
cargo test -q --offline --test store_persistence
# The probe sandbox's robustness gates: the fault-injection harness
# itself and the chaos suite over real workloads, likewise by name.
cargo test -q --offline -p oraql-faults
cargo test -q --offline --test chaos_faults
# The verdict server's gates: protocol/server/client unit suites and the
# end-to-end tier tests (warm replay, multi-tenant, fallback, recovery,
# protocol-doc drift), likewise by name.
cargo test -q --offline -p oraql-served
cargo test -q --offline --test served_roundtrip
# The observability gates: the span sink and log2-histogram unit suites
# and the analyzer determinism tests (order insensitivity, jobs 1-vs-4
# agreement, span hierarchy and the answer-to-span join, fig2-equals-CLI,
# pinned Fig. 4/6/funnel text), likewise by name.
cargo test -q --offline -p oraql-obs
cargo test -q --offline --test obs_analyzer
# The accounting gate: every probe answer is counted once, so each
# case's trace kinds and its effort agree across the jobs, store, server
# and fault legs, likewise by name.
cargo test -q --offline --test probe_accounting
# The CLI gate: a `--benchmark`, `--strategy` or `--max-tests` flag wins
# over `--config` on either side of it, and `--replay` runs the case the
# config describes, by name.
cargo test -q --offline -p oraql-workloads --test cli_flags
# The --jobs gates: every case repeats exactly at jobs 2 and 8 (budget-
# truncated runs included), decisions agree with jobs 1, and the suite
# completes verified under chaos at jobs 4, likewise by name.
cargo test -q --offline --test sched_determinism
# The workload generator's gates: plan/motif/corpus unit suites and the
# end-to-end soundness gate (byte-identical regeneration, label/verdict
# agreement across job counts, mislabel detection, chaos), by name.
cargo test -q --offline -p oraql-gen
cargo test -q --offline --test gen_soundness
# The wire-chaos gates: network fault injection against a live daemon,
# crash-point recovery torture (real child processes, killed and
# restarted), reconnect storms, and the ground-truth capstone — a
# generated corpus through a server under the full fault matrix with
# byte-identical verdicts — likewise by name.
cargo test -q --offline -p oraql-served --test wire_chaos
cargo test -q --offline -p oraql-served --test crash_torture
cargo test -q --offline -p oraql-served --test reconnect_storm
cargo test -q --offline --test chaos_net
# The benchmark (its own Cargo workspace) links these crates' public
# API; building and testing it here (13 tests, the traced loop's
# fidelity gate among them) shows an API break before a benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings

# Warm-cache smoke: the same case twice against one journal — the
# second run must answer at least one probe from the store.
STORE_TMP="$(mktemp -d)"
trap 'rm -rf "$STORE_TMP"' EXIT
target/release/oraql -b testsnap --store "$STORE_TMP/verdicts.journal" > /dev/null
target/release/oraql -b testsnap --store "$STORE_TMP/verdicts.journal" \
    | grep -E 'store: [1-9][0-9]* hits'

# Served smoke: a daemon on an ephemeral port, the same case twice
# through --server — the second run must answer probes remotely. The
# daemon's corpus is one ordinary store journal: once synced and the
# daemon stopped, `--store` on that file replays the case compile-free.
SERVED_TMP="$(mktemp -d)"
SERVED_PID=""
trap 'rm -rf "$STORE_TMP" "$SERVED_TMP"; [ -n "$SERVED_PID" ] && kill "$SERVED_PID" 2>/dev/null || true' EXIT
target/release/oraql-served serve --dir "$SERVED_TMP/data" --listen 127.0.0.1:0 \
    > "$SERVED_TMP/log" &
SERVED_PID=$!
for _ in $(seq 1 100); do
    grep -q 'listening on' "$SERVED_TMP/log" 2>/dev/null && break
    sleep 0.1
done
SERVED_ADDR="$(sed -n 's/.*listening on \([^,]*\),.*/\1/p' "$SERVED_TMP/log")"
target/release/oraql-served ping "$SERVED_ADDR"
target/release/oraql -b testsnap --server "$SERVED_ADDR" > /dev/null
target/release/oraql -b testsnap --server "$SERVED_ADDR" \
    | grep -E 'client: [1-9][0-9]* hits'
target/release/oraql-served sync "$SERVED_ADDR"
kill "$SERVED_PID"
wait "$SERVED_PID" || true
SERVED_PID=""
target/release/oraql -b testsnap --store "$SERVED_TMP/data/verdicts.journal" \
    > "$SERVED_TMP/replay"
grep -E '^probing: 0 compiles' "$SERVED_TMP/replay"
grep -E 'store: [1-9][0-9]* hits' "$SERVED_TMP/replay"

# Trace smoke: one traced run of a bisecting case. The summary table's
# `probes` column must equal the trace's answer lines (one line with a
# "kind" key per answer; the span lines have none), and the analyzer
# must profile the trace's probe spans.
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$STORE_TMP" "$SERVED_TMP" "$OBS_TMP"; [ -n "$SERVED_PID" ] && kill "$SERVED_PID" 2>/dev/null || true' EXIT
target/release/oraql -b testsnap_omp --trace "$OBS_TMP/trace.jsonl" > "$OBS_TMP/run"
PROBES="$(sed -n '/probe trace summary/,$ s/^testsnap_omp  *\([1-9][0-9]*\) .*/\1/p' "$OBS_TMP/run")"
test "$PROBES" -eq "$(grep -c '"kind":' "$OBS_TMP/trace.jsonl")"
target/release/oraql trace "$OBS_TMP/trace.jsonl" --top-spans > "$OBS_TMP/analysis"
grep -E '^probe +[1-9][0-9]* ' "$OBS_TMP/analysis"

# Generator smoke: a 64-case corpus materialized twice must be
# byte-identical, and the same plan must run green through the gated
# suite at jobs 4 (any kept optimism on an aliasing pair exits non-zero).
GEN_TMP="$(mktemp -d)"
trap 'rm -rf "$STORE_TMP" "$SERVED_TMP" "$OBS_TMP" "$GEN_TMP"; [ -n "$SERVED_PID" ] && kill "$SERVED_PID" 2>/dev/null || true' EXIT
GEN_PLAN='seed=2024,cases=64,per=3'
target/release/oraql gen --plan "$GEN_PLAN" --out "$GEN_TMP/a" > /dev/null
target/release/oraql gen --plan "$GEN_PLAN" --out "$GEN_TMP/b" > /dev/null
diff -r "$GEN_TMP/a" "$GEN_TMP/b"
target/release/oraql gen --plan "$GEN_PLAN" --run --jobs 4 \
    | grep -E 'suite: 64 ok, 0 failed'
# A generated case file names only its benchmark: the soundness gate is
# on by default, so running it checks the case's labels.
target/release/oraql --config "$GEN_TMP/a/case_00000.conf" \
    | grep -E '^ground truth: .* 0 violations$'

# Jobs-parity smoke: one unique-count rule at every job count, so
# `--jobs 2` walks every case's `--jobs 1` bisection path. Only the
# in-memory decisions map that jobs 1 lacks may differ: it moves
# answers from recompiles (`compiles`, `cached`) to the `parallel:`
# line's dec-cached count.
PARITY_TMP="$(mktemp -d)"
trap 'rm -rf "$STORE_TMP" "$SERVED_TMP" "$OBS_TMP" "$GEN_TMP" "$PARITY_TMP"; [ -n "$SERVED_PID" ] && kill "$SERVED_PID" 2>/dev/null || true' EXIT
for JOBS in 1 2; do
    target/release/oraql --all --jobs "$JOBS" > "$PARITY_TMP/raw$JOBS"
    sed -E -e '/^parallel: /d' \
        -e 's/^probing: [0-9]+ compiles, ([0-9]+ tests run), [0-9]+ cached,/probing: \1,/' \
        "$PARITY_TMP/raw$JOBS" > "$PARITY_TMP/jobs$JOBS"
done
diff "$PARITY_TMP/jobs1" "$PARITY_TMP/jobs2"

# Chaos smoke: the whole suite under a fixed fault-plan seed matrix,
# byte-identical across two runs, plus a parallel pass.
sh scripts/chaos.sh
