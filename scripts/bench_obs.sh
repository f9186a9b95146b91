#!/usr/bin/env sh
# Observability overhead benchmark (see docs/OPERATIONS.md § Observing
# a run).
#
# Drives the full 16-config workload suite uninstrumented and fully
# instrumented (the one trace stream of probe answers and spans written
# to its file), asserts the median pair ratio stays within the 1.05x
# budget, and verifies the `oraql trace --fig2` replay matches the
# in-run summary byte-for-byte. Writes JSON to BENCH_obs.json in the repo
# root; override with ORAQL_BENCH_OUT.
set -eu
cd "$(dirname "$0")/.."

# Cargo runs benches with the package directory as cwd, so anchor the
# default output at the repo root via an absolute path.
ORAQL_BENCH_OUT="${ORAQL_BENCH_OUT:-$(pwd)/BENCH_obs.json}" \
    cargo bench --offline -p oraql-bench --bench obs_overhead
