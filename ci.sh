#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

# Correctness tooling (crates/simcheck): the single static analyzer —
# line-local convention rules (wall-clock, native-thread, no-panic,
# serde-derive, trace-time, bad-allow), determinism taint, readonly
# purity and wait-annotation coverage; zero findings required, and the
# run refreshes the proven-pure report consumed via
# DsoConfig::pure_methods — then the DSO cluster smoke workload under 25
# perturbed schedules with linearizability checked on each (see
# DESIGN.md, "Correctness tooling" / "Static analysis").
cargo run --release -q -p simcheck --bin simanalyze -- --readonly-report results/pure_methods.txt
cargo run --release -q -p simcheck --bin simexplore -- --seeds 25

# Traced smoke run: export a Chrome trace from the π workload and
# schema-validate it (well-formed JSON, ts/dur present, span parents
# resolve). Guards the observability exports end to end.
cargo run --release -q -p bench --bin experiments trace-pi
cargo run --release -q -p simcheck --bin tracecheck -- results/trace-pi.chrome.json

# Elastic control-plane smoke: the 3x-ramp experiment self-asserts >=1
# scale-out, >=1 drain, >=90% peak tracking, and shed events, then
# exports its trace (reconcile/scale/drain spans, shed instants) for the
# same schema validation.
cargo run --release -q -p bench --bin experiments elastic
cargo run --release -q -p simcheck --bin tracecheck -- results/trace-elastic.chrome.json

# Kernel speed baseline: raw wheel churn, empty-cycle timers, the message
# ring, and the DSO smoke, each reported as events/sec in
# BENCH_kernel.json. benchcheck validates the file and holds every
# section above a sanity floor (~1/10 of typical release numbers), so an
# order-of-magnitude kernel regression fails here. On failure a second,
# --json run leaves a machine-readable violation list for trend tooling.
cargo run --release -q -p bench --bin experiments kernel-bench
cargo run --release -q -p simcheck --bin benchcheck -- BENCH_kernel.json \
    || { cargo run --release -q -p simcheck --bin benchcheck -- --json BENCH_kernel.json \
           > results/benchcheck_violations.json || true; exit 1; }

# Cold-start tier smoke: classic vs snapshot-restore elastic runs plus the
# fork fan-out microbench. The run self-asserts the tier mechanics (the
# snapshot run restores and buys no provisioned floors, the classic run
# does the opposite) and writes BENCH_coldstart.json; benchcheck holds the
# documented latency claims — a restore collapses the classic cold start
# >= 4x, a warm-parent fork undercuts the restore >= 2x.
cargo run --release -q -p bench --bin experiments coldstart
cargo run --release -q -p simcheck --bin benchcheck -- BENCH_coldstart.json \
    || { cargo run --release -q -p simcheck --bin benchcheck -- --json BENCH_coldstart.json \
           > results/benchcheck_violations.json || true; exit 1; }

# Consistency-spectrum ablation: the mode x cache matrix on the hot rf=3
# read workload under client churn, reported in BENCH_consistency.json.
# benchcheck holds the relational claims the docs make — replica reads
# beat primary-only reads, and the host-shared node cache beats the
# per-client cache once clients churn like FaaS containers do.
cargo run --release -q -p bench --bin experiments consistency-ablate
cargo run --release -q -p simcheck --bin benchcheck -- BENCH_consistency.json \
    || { cargo run --release -q -p simcheck --bin benchcheck -- --json BENCH_consistency.json \
           > results/benchcheck_violations.json || true; exit 1; }

# Durability smoke: the crash-recovery-vs-checkpoint-cadence matrix plus
# the per-level write-overhead table, reported in BENCH_recovery.json.
# benchcheck holds the durability claims — a 500 ms checkpoint cadence
# cuts full-cluster crash recovery >= 1.2x and replays fewer WAL bytes
# than running on the log alone, and async group commit stays off the
# write path (within 1.2x of no durability).
cargo run --release -q -p bench --bin experiments recovery
cargo run --release -q -p simcheck --bin benchcheck -- BENCH_recovery.json \
    || { cargo run --release -q -p simcheck --bin benchcheck -- --json BENCH_recovery.json \
           > results/benchcheck_violations.json || true; exit 1; }
