#!/usr/bin/env sh
# Probe-sandbox overhead benchmark (see docs/ARCHITECTURE.md §6).
#
# Drives the full workload suite fault-free and with a quiet (all-zero)
# fault plan armed, and writes the wall-clock totals and the overhead
# ratio as JSON — including the
# fault-free total against the pre-sandbox cold suite recording in
# BENCH_store.json when present. Output path defaults to
# BENCH_faults.json in the repo root; override with ORAQL_BENCH_OUT.
set -eu
cd "$(dirname "$0")/.."

# Cargo runs benches with the package directory as cwd, so anchor the
# default output at the repo root via an absolute path.
ORAQL_BENCH_OUT="${ORAQL_BENCH_OUT:-$(pwd)/BENCH_faults.json}" \
    cargo bench --offline -p oraql-bench --bench faults_overhead
