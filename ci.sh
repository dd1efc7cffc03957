#!/usr/bin/env bash
# Tier-1 CI gate: build, test, format, lint. Run from the repo root.
#
#   ci.sh          - standard gate; property tests run a pinned 64-case
#                    budget so the differential suites are deterministic
#                    in wall-clock terms. (Includes the skip-equivalence
#                    property suite: skipping vs naive loop, bitwise.)
#   ci.sh --fuzz   - same gate, then a deeper randomized sweep of the
#                    property/differential suites (512 cases each).
#   ci.sh --faults - same gate, then the fault suites at depth: the
#                    fault-determinism fuzz (malformed packets/tags into
#                    lenient components) and the fault-mode
#                    skip-equivalence properties at 512 cases each. The
#                    standard gate already runs both at the pinned
#                    64-case budget via `cargo test`.
#   ci.sh --bench  - same gate, then the simulator wall-clock benchmark
#                    (fig. 14/15 sweep shapes, BENCH_sim.json). It asserts
#                    the skipping and naive loops bitwise identical on
#                    every workload and fails if skip mode loses to the
#                    naive loop in the same binary (per-workload min
#                    0.90x, sweep geomean 1.0x). No variable needs setting.
#   ci.sh --serve  - same gate, then the serving-layer suites at depth
#                    (scheduler-vs-oracle, determinism, malformed fuzz at
#                    512 cases each) and the serving load benchmark
#                    (BENCH_serve.json), whose built-in sanity gates
#                    require a finite p99 under underload and a nonzero
#                    shed rate at 2x saturation. The standard gate already
#                    runs the serve suites at the pinned 32-case budget.
#   ci.sh --compile - same gate, then the graph-compiler suites at depth
#                    (DAG equivalence + DAG differential properties, 512
#                    cases each) and the pipelining benchmark
#                    (BENCH_pipeline.json), whose built-in gate requires
#                    compiled-pipelined cycles strictly below per-layer
#                    replay on every multi-phase workload. The standard
#                    gate already runs both suites at the pinned 32-case
#                    budget.
#   ci.sh --twospeed - same gate, then the two-speed audit suites at
#                    depth (audit-sampler purity and defect-catching
#                    properties at 512 cases, plus the histogram edge
#                    suite) and the two-speed benchmark
#                    (BENCH_twospeed.json): 10^6 requests per scenario on
#                    the analytical path, with built-in hard gates — zero
#                    envelope violations at every audit rate, a bitwise
#                    identical audited subset across serial/threaded/
#                    rerun, and >=100x analytical speedup over full
#                    replay. The standard gate already runs the audit
#                    property suite at the pinned 32-case budget.
#   ci.sh --cluster - same gate, then the cluster suites at depth (the
#                    sharded-vs-single-cube / skip-vs-naive on a fresh
#                    and on a warm cluster / certified link-bound
#                    properties at 512 cases, plus the cluster and serve
#                    unit suites, which pin the executor - member cubes
#                    on private clocks, a stage's part cubes on host
#                    threads - to the registry of the serial
#                    tick-every-member one it replaced, one worker
#                    against four, and the planner to the plans of the
#                    prefix-cloning one) and the 16-64 cube scaling
#                    study (BENCH_cluster.json), whose built-in gates
#                    require pipelined batch throughput strictly above
#                    the single big cube on every multi-stage point and
#                    weak-scaling plans that grow with the fabric. The
#                    standard gate already runs the property suite at the
#                    pinned 32-case budget. Both run the cluster suites
#                    twice where `taskset` exists: on every core, and
#                    pinned to one, where the host thread count is 1 and
#                    every part runs inline on the calling thread.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
PROPTEST_CASES=64 cargo test -q
# Fault, serving and graph-compiler suites at their own pinned budget:
# malformed-input fuzzing of the lenient paths, the fault-mode
# skip-equivalence properties, the scheduler-vs-oracle serving
# properties, and the DAG equivalence/differential properties.
PROPTEST_CASES=32 cargo test -q \
    -p neurocube-integration-tests --test fault_fuzz --test skip_equivalence
PROPTEST_CASES=32 cargo test -q \
    -p neurocube-integration-tests --test graph_equivalence --test graph_differential
PROPTEST_CASES=32 cargo test -q \
    -p neurocube-serve --test serve_properties
# Two-speed audit properties (sampler purity, defect catching) at the
# same pinned budget.
PROPTEST_CASES=32 cargo test -q \
    -p neurocube-integration-tests --test twospeed_audit
# Ambient process state cannot change a run: one test in its own binary
# sets NEUROCUBE_* variables and compares against a clean run.
cargo test -q -p neurocube-integration-tests --test ambient_env
# Cluster sharding properties: sharded == single-big-cube bitwise,
# skip == naive with every member cube on its private clock (fresh and
# warm clusters), certified link-aware cycle bounds.
PROPTEST_CASES=32 cargo test -q \
    -p neurocube-integration-tests --test cluster_sharding
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
    --exclude proptest --exclude rand --exclude criterion

if [[ "${1:-}" == "--fuzz" ]]; then
    echo "== fuzz sweep (PROPTEST_CASES=512) =="
    PROPTEST_CASES=512 cargo test -q --release \
        -p neurocube-fixed \
        -p neurocube-dram \
        -p neurocube-noc \
        -p neurocube-golden \
        -p neurocube-integration-tests
fi

if [[ "${1:-}" == "--faults" ]]; then
    echo "== fault suites (PROPTEST_CASES=512) =="
    PROPTEST_CASES=512 cargo test -q --release \
        -p neurocube-integration-tests --test fault_fuzz --test skip_equivalence
fi

if [[ "${1:-}" == "--bench" ]]; then
    echo "== simulator wall-clock benchmark (gate: skip >= naive, bitwise identical) =="
    cargo bench -p neurocube-bench --bench bench_sim
fi

if [[ "${1:-}" == "--serve" ]]; then
    echo "== serving suites (PROPTEST_CASES=512) =="
    PROPTEST_CASES=512 cargo test -q --release \
        -p neurocube-serve --test serve_properties
    cargo test -q --release \
        -p neurocube-integration-tests --test serve_system
    echo "== serving load benchmark (gates: finite p99 underloaded, shed > 0 at 2x) =="
    cargo bench -p neurocube-bench --bench serve_load
fi

if [[ "${1:-}" == "--compile" ]]; then
    echo "== graph-compiler suites (PROPTEST_CASES=512) =="
    PROPTEST_CASES=512 cargo test -q --release \
        -p neurocube-integration-tests --test graph_equivalence --test graph_differential
    echo "== pipelining benchmark (gate: pipelined < replay on every multi-phase workload) =="
    cargo bench -p neurocube-bench --bench pipeline_bench
fi

if [[ "${1:-}" == "--twospeed" ]]; then
    echo "== two-speed audit suites (PROPTEST_CASES=512) =="
    PROPTEST_CASES=512 cargo test -q --release \
        -p neurocube-integration-tests --test twospeed_audit
    cargo test -q --release -p neurocube-sim --test histogram_edge
    echo "== two-speed benchmark (gates: zero violations, bitwise audits, >=100x speedup) =="
    cargo bench -p neurocube-bench --bench twospeed_load
fi

if [[ "${1:-}" == "--cluster" ]]; then
    echo "== cluster sharding suites (PROPTEST_CASES=512) =="
    PROPTEST_CASES=512 cargo test -q --release \
        -p neurocube-integration-tests --test cluster_sharding
    cargo test -q --release -p neurocube-cluster -p neurocube-serve
    if (( ${#one_core[@]} )); then
        echo "== the same on one core (one worker, every part inline) =="
        "${one_core[@]}" cargo test -q --release -p neurocube-cluster
        PROPTEST_CASES=512 "${one_core[@]}" cargo test -q --release \
            -p neurocube-integration-tests --test cluster_sharding
    fi
    echo "== cluster scaling study (gates: pipelined > single cube, plans grow with fabric) =="
    cargo bench -p neurocube-bench --bench scaling_cluster
fi
