#!/usr/bin/env bash
# Tier-1 verification — the hermetic offline build-and-test gate.
#
# The workspace has zero registry dependencies (tests/hermetic.rs
# enforces it), so everything here must succeed with no network:
# --offline is not an optimization but part of the contract.
set -euo pipefail
cd "$(dirname "$0")/.."

# bench_stage <kind> <runs>: one gated benchmark lane. bench_<kind>
# writes BENCH_<kind>.json in quick mode; with <runs> = 2 a second run
# into target/ must be byte-identical (the virtual clock is
# deterministic), then `bench_gate <kind>` holds the fresh file against
# its committed results/ baseline.
bench_stage() {
    local kind=$1 runs=$2
    local out=BENCH_$kind.json repeat=target/BENCH_${kind}_repeat.json
    rm -f "$out" "$repeat"
    DSP_BENCH_QUICK=1 cargo run -q --release --offline -p ds-bench --bin "bench_$kind" -- "$out"
    test -s "$out"
    if [ "$runs" = 2 ]; then
        DSP_BENCH_QUICK=1 cargo run -q --release --offline -p ds-bench --bin "bench_$kind" -- \
            "$repeat"
        cmp "$out" "$repeat"
    fi
    cargo run -q --release --offline -p ds-bench --bin bench_gate -- "$kind" "$out"
}

# Serve stage: the online-inference lane. bench_serve replays the same
# seeded open-loop traces twice — the reports must be byte-identical
# (virtual-clock determinism is part of the serving contract) — and the
# latency/goodput columns are gated against the committed baseline.
# Invocable alone as `scripts/ci.sh serve`.
if [ "${1:-}" = "serve" ]; then
    cargo build --release --offline
    bench_stage serve 2
    exit 0
fi

# Split stage: the DSP-vs-GSplit head-to-head. bench_split sweeps both
# training modes over the same datasets and GPU counts twice — the
# reports must be byte-identical (the partial-aggregate exchange rides
# the same virtual clock) — then the per-lane epoch times and the
# measured crossover are gated against the committed baseline, and the
# split exchange protocol's ds-check models rerun by name.
# Invocable alone as `scripts/ci.sh split`.
split_stage() {
    bench_stage split 2
    cargo test -q --offline --features check --test check_models -- split
}

if [ "${1:-}" = "split" ]; then
    cargo build --release --offline
    split_stage
    exit 0
fi

cargo fmt --check
scripts/lint_locks.sh
scripts/lint_threads.sh
scripts/lint_sync.sh
cargo build --release --offline
# `cargo test` does not compile harness=false benches; build them so
# the ds-testkit bench API stays honest.
cargo build --offline --benches
cargo test -q --offline --workspace
# The benchmark package (perfbench/, its own workspace) drives the
# public API; building it and running its self-tests here catches an
# API break before the benchmark itself runs.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Chaos stage: the full system under seed-driven fault injection, swept
# over two fixed seeds via the env plumbing (delay-class chaos must be
# invisible to convergence), on top of the crash/degradation scenarios
# in tests/chaos.rs that already ran with the workspace suite.
for seed in 1 2; do
    DS_FAULT_PLAN="chaos:n=4" DS_FAULT_SEED="$seed" \
        cargo test -q --offline --test fault_env
done

# Recovery stage: elastic recovery under chaos. A multi-seed soak where
# a crashed sampler rejoins mid-run while delay-class chaos plays over
# it (convergence must stay bit-identical through the rejoin), then the
# checkpoint codec round-trip and the rejoin / flapping-peer / shard-
# rebuild / checkpoint-resume scenarios rerun by name so a recovery
# regression fails this stage explicitly, not just the workspace sweep.
for seed in 1 2; do
    DS_FAULT_PLAN="chaos:n=3; crash:rank=1,worker=sampler,batch=1; recover:rank=1,worker=sampler,batch=3" \
        DS_FAULT_SEED="$seed" cargo test -q --offline --test fault_env
done
cargo test -q --offline -p ds-store ckpt
cargo test -q --offline --test chaos -- rejoin flapping rebuild checkpoint resume

# Check stage: deterministic schedule exploration of the concurrency
# core. `--features check` swaps pipeline/comm/exec onto the
# `ds_check::sync` shims; the model suites run bounded-exhaustive DFS
# plus a fixed-seed PCT budget over the real chan / slots / CCC
# protocols (tests/check_models.rs) and over the harness's own
# regression models (crates/check). The existing pipeline/comm suites
# also rerun on the shimmed build to prove the alias layer is inert
# outside a model.
cargo test -q --offline --features check --test check_models
cargo test -q --offline -p ds-check
cargo test -q --offline -p ds-pipeline --features check
cargo test -q --offline -p ds-comm --features check

# Trace stage: observability end to end. The traced quickstart runs in
# target/quickstart (it writes its exports under ./results) and must
# export a well-formed Chrome trace (valid JSON, every B matched by an
# E per lane — trace_check re-parses the file from disk) and the same
# folded stacks as the committed results/quickstart_folded.txt: span
# structure is part of the determinism contract.
cargo build -q --release --offline --example quickstart
rm -rf target/quickstart
mkdir -p target/quickstart
(cd target/quickstart && DS_TRACE=1 ../release/examples/quickstart > /dev/null)
cargo run -q --release --offline -p ds-bench --bin trace_check -- \
    target/quickstart/results/quickstart_trace.json
cmp results/quickstart_folded.txt target/quickstart/results/quickstart_folded.txt
# Pipeline telemetry: byte-identical across two runs, and gated against
# the committed baseline — every stage's mean within 25%, and the
# beneficial counters (cache.hits, cache.prefetch_hits) still flowing.
bench_stage pipeline 2

# Kernel stage: wall-clock microbench of the packed-GEMM / fused-gather
# tensor kernels. Output hashes are bit-deterministic and identical in
# quick mode, so they gate exactly against the committed baseline;
# wall-clock columns are machine noise and gate only at a generous
# factor (the gate catches fast-path cliffs, not percent drift). One
# run only: the `_ms` lanes are wall time, so the file never repeats.
bench_stage gemm 1

# Cache-policy ablation: static/LRU/LFU/hotness vs the Belady oracle
# ceiling. The bin self-asserts the dominance invariants (oracle >= all,
# hotness beats static on the shifted workload), and two runs into
# target/ must both equal the committed results/ablation_cache.txt —
# policy replay is part of the determinism contract.
for out in target/ablation_cache.txt target/ablation_cache_repeat.txt; do
    cargo run -q --release --offline -p ds-bench --bin ablation_cache -- "$out"
    cmp results/ablation_cache.txt "$out"
done

# Serving: double-run byte-identity + latency/goodput gate (see the
# serve stage above).
bench_stage serve 2

# Split parallelism: double-run byte-identity of the DSP-vs-GSplit
# head-to-head + epoch-time/crossover gate + exchange-protocol models
# (see split_stage above).
split_stage
