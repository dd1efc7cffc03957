#!/usr/bin/env bash
# CI gate, in two modes. Run from the repo root.
#
#   ci.sh        - the standard gate: release build, the workspace tests
#                  with property suites at a pinned 64-case budget (the
#                  cluster suites once more pinned to one core where
#                  `taskset` exists, so the executor runs its one-worker
#                  inline path), the ambient-environment test, fmt, clippy
#                  and the doc gate. A smaller budget would add nothing:
#                  the vendored runner seeds case i from the test name and
#                  i alone, so 32 cases are the first 32 of the 64.
#   ci.sh --deep - the standard gate, then every workspace test in release
#                  with property suites at 512 cases, the one-core cluster
#                  runs at 512 cases, and the three studies whose built-in
#                  gates are deterministic: `pipeline_bench` (pipelined
#                  strictly below per-layer replay on every multi-phase
#                  workload), `serve_load` (finite p99 and no shedding
#                  under load, shedding at 2x saturation, serial ==
#                  threaded replay) and `scaling_cluster` (pipelined
#                  batches beat the single big cube, weak-scaling plans
#                  grow with the fabric, reruns bitwise identical).
#
# Any other argument is an error, so a mode that no longer exists never
# silently runs only the standard gate.
case "$#:${1:-}" in
    0: | 1:--deep) ;;
    *)
        echo "usage: ci.sh [--deep]  (modes: standard, --deep)" >&2
        exit 2
        ;;
esac
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
PROPTEST_CASES=64 cargo test -q
# Ambient process state cannot change a run: one test in its own binary
# sets NEUROCUBE_* variables and compares against a clean run.
cargo test -q -p neurocube-integration-tests --test ambient_env
# The cluster executor sizes its fork-join from the host: pinned to one
# core it has one worker, the calling thread. No knob selects that path.
one_core=()
if command -v taskset >/dev/null; then
    one_core=(taskset -c 0)
    "${one_core[@]}" cargo test -q -p neurocube-cluster
    PROPTEST_CASES=32 "${one_core[@]}" cargo test -q \
        -p neurocube-integration-tests --test cluster_sharding
fi
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Doc gate over our own crates (the vendored dev-deps are exempt).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet \
    --exclude proptest --exclude rand

if [[ "${1:-}" == "--deep" ]]; then
    echo "== workspace tests in release (PROPTEST_CASES=512) =="
    PROPTEST_CASES=512 cargo test -q --release --workspace
    if (( ${#one_core[@]} )); then
        echo "== cluster suites on one core (one worker, every part inline) =="
        "${one_core[@]}" cargo test -q --release -p neurocube-cluster
        PROPTEST_CASES=512 "${one_core[@]}" cargo test -q --release \
            -p neurocube-integration-tests --test cluster_sharding
    fi
    echo "== studies (built-in gates) =="
    cargo bench -p neurocube-bench --bench pipeline_bench
    cargo bench -p neurocube-bench --bench serve_load
    cargo bench -p neurocube-bench --bench scaling_cluster
fi
