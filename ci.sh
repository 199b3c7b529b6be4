#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the tier-1 build+test cycle.
# Everything runs offline — the only dependencies are the vendored shims
# in shims/ (see Cargo.toml's workspace.dependencies).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> xtask verify: lints, kernel oracle, proto fuzzer, miri, interleavings"
cargo run -p xtask -- verify

echo "==> cargo doc (workspace, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> accelerator models + execution seam: mmm-knl, mmm-gpu, mmm-exec"
cargo test -q -p mmm-knl -p mmm-gpu -p mmm-exec

echo "==> fault suite: hostile inputs, injected faults, degradation paths"
cargo test -q -p mmm-index --test truncated_index
cargo test -q -p mmm-pipeline --test faults
cargo test -q -p manymap --test cli_faults

echo "==> chaos suite: supervised backend under every injected fault class"
cargo test -q -p mmm-exec --test chaos
cargo test -q -p mmm-exec --test watchdog_interleavings
cargo test -q -p manymap --test backend_cli

echo "==> shard suite: corruption sweep, fault containment, sharded/flat byte-identity"
cargo test -q -p mmm-index --test shard_corruption
cargo test -q -p manymap --test shard_e2e
cargo build --release -q -p mmm-simreads -p manymap --bins
SHARD_WORK=$(mktemp -d "${TMPDIR:-/tmp}/mmm-shard-ci.XXXXXX")
SERVE_PID=""
trap '[[ -z "$SERVE_PID" ]] || kill "$SERVE_PID" 2>/dev/null; rm -rf "$SHARD_WORK"' EXIT
target/release/simreads --genome 240000 --chroms 4 --reads 24 --platform ont --seed 9 \
    --out-ref "$SHARD_WORK/ref.fa" --out-reads "$SHARD_WORK/reads.fa" >/dev/null
target/release/manymap index "$SHARD_WORK/ref.fa" "$SHARD_WORK/flat.mmx" 2>/dev/null
target/release/manymap index "$SHARD_WORK/ref.fa" "$SHARD_WORK/sharded.mmx" --shards 4 2>/dev/null
target/release/manymap map "$SHARD_WORK/flat.mmx" "$SHARD_WORK/reads.fa" \
    --threads 2 >"$SHARD_WORK/flat.paf" 2>/dev/null
# Beyond-budget: 64K forces LRU eviction and reload mid-run.
target/release/manymap map "$SHARD_WORK/sharded.mmx" "$SHARD_WORK/reads.fa" \
    --threads 2 --mem-budget 64K >"$SHARD_WORK/sharded.paf" 2>/dev/null
cmp "$SHARD_WORK/flat.paf" "$SHARD_WORK/sharded.paf" \
    || { echo "ci: sharded mapping diverged from flat"; exit 1; }
# Legacy (v1) flat index: same key table, flat hit array, same bytes out.
target/release/manymap index "$SHARD_WORK/ref.fa" "$SHARD_WORK/legacy.mmx" \
    --index-format legacy 2>/dev/null
target/release/manymap map "$SHARD_WORK/legacy.mmx" "$SHARD_WORK/reads.fa" \
    --threads 2 >"$SHARD_WORK/legacy.paf" 2>/dev/null
cmp "$SHARD_WORK/flat.paf" "$SHARD_WORK/legacy.paf" \
    || { echo "ci: legacy-format mapping diverged from packed"; exit 1; }
# HPC sketch (map-pb): a flat index and a 4-shard index map identically.
target/release/manymap index "$SHARD_WORK/ref.fa" "$SHARD_WORK/pb_flat.mmx" \
    --preset map-pb 2>/dev/null
target/release/manymap index "$SHARD_WORK/ref.fa" "$SHARD_WORK/pb_sharded.mmx" \
    --preset map-pb --shards 4 2>/dev/null
for pb in pb_flat pb_sharded; do
    target/release/manymap map "$SHARD_WORK/$pb.mmx" "$SHARD_WORK/reads.fa" \
        --preset map-pb --threads 2 >"$SHARD_WORK/$pb.paf" 2>/dev/null
done
cmp "$SHARD_WORK/pb_flat.paf" "$SHARD_WORK/pb_sharded.paf" \
    || { echo "ci: map-pb sharded mapping diverged from flat"; exit 1; }
# Chaos gate: a dead shard must degrade its reads and exit 0, not crash.
target/release/manymap map "$SHARD_WORK/sharded.mmx" "$SHARD_WORK/reads.fa" \
    --threads 2 --inject-backend-fault missing-shard:shards=1 \
    >"$SHARD_WORK/degraded.paf" 2>"$SHARD_WORK/chaos.stderr"
grep -q "4 total, 1 quarantined" "$SHARD_WORK/chaos.stderr" \
    || { echo "ci: shard chaos gate missing quarantine report"; cat "$SHARD_WORK/chaos.stderr"; exit 1; }
grep -q $'\ttp:A:U' "$SHARD_WORK/degraded.paf" \
    || { echo "ci: quarantined shard produced no degraded reads"; exit 1; }
# Serve leg: a daemon under the same plan must serve the CLI's bytes.
SOCK="$SHARD_WORK/daemon.sock"
target/release/mmm-serve daemon "$SHARD_WORK/sharded.mmx" --socket "$SOCK" \
    --threads 2 --inject-backend-fault missing-shard:shards=1 2>"$SHARD_WORK/daemon.stderr" &
SERVE_PID=$!
for _ in $(seq 1 200); do
    [[ -S "$SOCK" ]] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { cat "$SHARD_WORK/daemon.stderr"; exit 1; }
    sleep 0.05
done
target/release/mmm-serve client "$SOCK" chaos "$SHARD_WORK/reads.fa" \
    >"$SHARD_WORK/served.paf" 2>/dev/null
target/release/mmm-serve drain "$SOCK" >/dev/null
wait "$SERVE_PID"
SERVE_PID=""
cmp "$SHARD_WORK/degraded.paf" "$SHARD_WORK/served.paf" \
    || { echo "ci: served shard chaos diverged from the CLI"; exit 1; }
rm -rf "$SHARD_WORK"
trap - EXIT

echo "==> tier identity: every SIMD tier maps a seeded ONT set to the same bytes"
TIER_WORK=$(mktemp -d "${TMPDIR:-/tmp}/mmm-tier-ci.XXXXXX")
trap 'rm -rf "$TIER_WORK"' EXIT
target/release/simreads --genome 200000 --reads 40 --platform ont --seed 5 \
    --out-ref "$TIER_WORK/ref.fa" --out-reads "$TIER_WORK/reads.fa" >/dev/null
target/release/manymap map "$TIER_WORK/ref.fa" "$TIER_WORK/reads.fa" \
    --threads 2 >"$TIER_WORK/default.paf" 2>/dev/null
for tiers in avx512 avx512,avx2 all; do
    MMM_DISABLE_SIMD=$tiers target/release/manymap map "$TIER_WORK/ref.fa" "$TIER_WORK/reads.fa" \
        --threads 2 >"$TIER_WORK/$tiers.paf" 2>/dev/null
    cmp "$TIER_WORK/default.paf" "$TIER_WORK/$tiers.paf" \
        || { echo "ci: MMM_DISABLE_SIMD=$tiers mapping diverged from the default tier"; exit 1; }
done
rm -rf "$TIER_WORK"
trap - EXIT

echo "==> gap-fill kernel bench: quick smoke (baseline lives in BENCH_gapfill_mix.json)"
BENCH_QUICK=1 BENCH_JSON_OUT="" cargo run -q --release -p bench --bin gapfill_mix

echo "==> shard load bench: quick smoke (baseline lives in BENCH_shard_load.json)"
BENCH_QUICK=1 BENCH_JSON_OUT="" cargo run -q --release -p bench --bin shard_load

echo "==> scheduler suite: binned dispatch ordering, routing, chaos replay"
cargo test -q -p mmm-exec --test sched
MMM_SCHED=bins cargo test -q -p manymap --test backend_cli

echo "==> serve suite: multi-tenant daemon byte-identity, backpressure, drain"
cargo test -q -p mmm-index --test hit_budget
cargo test -q -p manymap --test serve

echo "==> serve gate: boot daemon, 4 concurrent clients, clean drain"
./serve_gate.sh

echo "==> serve ingestion bench: quick smoke (baseline lives in BENCH_serve_queue.json)"
BENCH_QUICK=1 BENCH_JSON_OUT="" cargo bench -p bench --bench serve_queue

echo "==> packed-index suite: format compat, alloc regression, forced-scalar decode"
cargo test -q -p manymap --test alloc_count
MMM_DISABLE_SIMD=all cargo test -q -p mmm-index
MMM_DISABLE_SIMD=all cargo test -q -p manymap --test hpc_mapping

echo "==> index decode bench: quick smoke (baseline lives in BENCH_index_decode.json)"
BENCH_QUICK=1 BENCH_JSON_OUT="" cargo run -q --release -p bench --bin index_decode

echo "CI OK"
