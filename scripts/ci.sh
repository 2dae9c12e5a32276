#!/usr/bin/env bash
# Local CI: build, test, format check, lint — the same gates a hosted
# pipeline would run, tolerant of fully-offline checkouts.
#
#   scripts/ci.sh            # everything
#   scripts/ci.sh --fast     # skip the release build
#
# Steps that need components this toolchain may not ship (rustfmt,
# clippy) are skipped with a notice instead of failing the run.
set -uo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

# Never touch the network: every dependency is vendored in-tree (shims/).
CARGO_FLAGS=(--offline)
if ! cargo metadata "${CARGO_FLAGS[@]}" --no-deps >/dev/null 2>&1; then
  # Older cargo or odd setups: fall back to the default resolver.
  CARGO_FLAGS=()
fi

failures=0
step() {
  local name="$1"
  shift
  echo "==> ${name}"
  if "$@"; then
    echo "    ok"
  else
    echo "    FAILED: ${name}"
    failures=$((failures + 1))
  fi
}

# step_t <seconds> <name> <cmd...>: `step` under an outer
# `timeout --signal=KILL` belt, for suites where a regression can hang
# instead of fail; plain `step` where `timeout` is not installed.
step_t() {
  local secs="$1" name="$2"
  shift 2
  if command -v timeout >/dev/null 2>&1; then
    step "${name} (timeout ${secs}s)" timeout --signal=KILL "$secs" "$@"
  else
    step "$name" "$@"
  fi
}

step "build (dev)" cargo build "${CARGO_FLAGS[@]}" --workspace
if [[ "$FAST" -eq 0 ]]; then
  step "build (release)" cargo build "${CARGO_FLAGS[@]}" --workspace --release
fi
# The tests must leave the checkout as they found it: one that writes
# into the source tree dirties every later commit.
tree_before="$(git status --porcelain 2>/dev/null)"
step "test" cargo test "${CARGO_FLAGS[@]}" --workspace -q
step "tests leave the checkout clean" \
  test "$tree_before" = "$(git status --porcelain 2>/dev/null)"

# Fault-injection suite, run explicitly and under a step-level timeout:
# these tests exercise crash/partition/straggler recovery, so a
# regression here can present as a *hang* rather than a failure. Each
# test body already runs under testing::with_deadline; the outer
# `timeout` is the belt to that suspenders (e.g. a deadlock outside the
# watchdogged region). 300 s is ~20× the suite's normal runtime.
step_t 300 "fault suite" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce-core --test fault -q

# Membership suite (§12 elastic membership): epoch fencing at the
# engine level (evict → stale-epoch drop → rejoin at a later epoch)
# and the wind-down regression tests (shutdown errors surfaced and
# counted on every lane). Timer-driven evictions mean a regression can
# stall rather than fail — same outer timeout belt.
step_t 300 "membership suite" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce-core --test membership -q

# Failover suite (§12 hot standby): seeded primary crashes mid-stream
# must complete via the standby bit-identical to an uninterrupted run,
# with exact stats/telemetry replay. A takeover that never converges
# presents as a hang, hence the outer timeout.
step_t 300 "failover suite" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce-core --test fault -q -- failover fails_over

# Sharded interleaving suite (§4 multi-aggregator): per-shard chaos,
# empty shards, one-shard stragglers and a non-primary aggregator
# crash. Same hang risk as the fault suite (a survivor that
# never winds down presents as a stall), so it gets the same outer
# timeout belt.
step_t 300 "sharded interleave suite" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce-core --test shard_interleave -q

# Algorithm 2 exhaustive suite (§16): every schedule of drops,
# duplicates, timer fires and an eviction over small scopes of the pure
# recovery machines — termination, no spurious give-up, no double fold,
# and the same rows as Algorithm 1. A livelock is reported, not hung on;
# the timeout belt is for the search itself.
step_t 300 "algorithm 2 exhaustive" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce-core --test recovery_exhaustive -q

# Cross-engine differential suite: every protocol implementation
# (lossless, recovery clean/lossy, sharded {1,2,4}-aggregator columns,
# hierarchical, both simulators) against the scalar oracle,
# bit-identical / wire-byte-exact with per-shard byte aggregation. Runs
# as part of `cargo test --workspace` above too; called out explicitly
# so a correctness divergence is named in the CI log.
step "differential (core conformance, incl. sharded column)" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce-core --test conformance -q
step "differential (workspace engines, per-shard bytes)" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce --test differential -q

# TCP transport (§17 readiness loop): the endpoint's contract, one test
# per line — FIFO across deferred and written-through sends, back-
# pressure, graceful close, peer isolation, timeout precision, frame
# reassembly — plus the hostile-bytes regression, and the thread/
# descriptor leak regression in a binary of its own (it counts the
# whole process's threads); then the lossless engines over real
# sockets against the scalar oracle and the channel mesh's counters. A loop that waits for
# the wrong readiness hangs rather than fails, hence the timeout belt.
step_t 120 "tcp transport contract" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce-transport --test tcp_contract -q
step_t 120 "tcp transport leaks" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce-transport --test tcp_no_leaks -q
step_t 300 "tcp conformance" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce --test tcp_conformance -q

# Algorithm 2 over real lossy UDP sockets, bit-identical to the same
# collective over TCP, plus the bounded-retry exit against an unbound
# peer. A group that waits on a lost goodbye hangs rather than fails.
step_t 300 "udp recovery (UDP ≡ TCP under loss)" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce --test udp_recovery -q

# Flight-recorder suite (§11 observability): chaos runs with the
# recorder on must stay bit-identical to recorder-off runs, the
# reconstructor must recover every round, and the seeded straggler /
# loss faults must trip their detectors. Same outer timeout belt as the
# fault suite — these tests drive real lossy multi-thread runs.
step_t 300 "flight recorder suite" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce-core --test flight -q

# Parallel simnet differential suite (§13): the full conformance matrix
# through the simulated mirrors at threads {1,2,8} — completion times,
# per-NIC counters, per-shard wire bytes and whole flight recordings
# bit-identical across thread counts, plus recovery/membership runs. A
# synchronization bug in the conservative engine can deadlock a barrier
# rather than fail, hence the outer timeout belt.
step_t 300 "simnet-parallel" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce --test simnet_parallel -q

# Simnet property tests: random topologies (node count, rack fan-out,
# latencies, loss, thread count) must be parallel==sequential
# bit-identical, plus the committed regression corpus
# (crates/simnet/tests/regressions/topologies.csv). Same hang risk as
# above — a lookahead bug stalls the window protocol.
step_t 300 "simnet-proptest" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce-simnet --test proptest_topologies -q

# Tenant isolation suite (§15 multi-tenancy): N concurrent tenants over
# one shared shard fleet must each be bit-identical to their solo runs
# (clean and under per-tenant seeded chaos, with exact telemetry
# replay), a mid-stream tenant abort must wind down alone, quota
# overuse must throttle without corruption, and a solo service tenant
# must match the plain sharded harness byte-for-byte. A demux or
# scheduler deadlock presents as a stall, hence the outer timeout belt.
step_t 300 "tenant interleave suite" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce-core --test tenant_interleave -q

# Tenant fairness suite (§15 WFQ): pure property tests over the slot
# scheduler — weighted shares converge, bounded wait (no starvation),
# pool never over-committed, quota debt demotes without corruption,
# grant sequences replay exactly per seed.
step_t 300 "tenant fairness suite" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce-core --test tenant_fairness -q

# Stream-0 wire compatibility: legacy 10-byte Block frames and the
# stream-tagged 12-byte layout round-trip through the same codec, and
# the tenant unit suite pins admission/registry/WFQ semantics.
step "tenant stream-compat (codec + unit suite)" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce-core --lib -q tenant

# Recorder hot path must not allocate: CountingAllocator-backed
# regression over record/record_at/now_ns.
step "flight recorder allocation gate" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce-telemetry --test flight_alloc -q

# Time-series sampler hot path must not allocate either (§14): the
# store push and sampler tick run under CountingAllocator, plus the
# detector fire/no-fire boundary suite embedded in the telemetry crate.
step "sampler allocation gate" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce-telemetry --test timeseries_alloc -q
step "detector boundary suite" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce-telemetry --lib -q detect

# Sampler non-perturbation (§14): sampler-on chaos runs must be
# bit-identical (tensors, stats) to sampler-off runs, with an exact
# counter-plane replay. Lossy multi-thread runs — same timeout belt.
step_t 300 "sampler identity suite" \
  cargo test "${CARGO_FLAGS[@]}" -p omnireduce-core --test sampler_identity -q

# End-to-end analyzer: omnistat runs a sharded recovery deployment
# under packet loss, merges its own recording and gates on the
# reconstructor producing a non-degenerate latency attribution.
if [[ "$FAST" -eq 0 ]]; then
  step_t 300 "omnistat attribution gate" \
    cargo run "${CARGO_FLAGS[@]}" --release -p omnireduce-bench \
    --bin omnistat -- --demo --check
fi

# Telemetry pipeline gate (§14): omnitop's seeded chaos demo. Every
# online detector must fire exactly on its injected fault window, stay
# silent on the clean control schedule, and a background-sampled run
# must be bit-identical to an unsampled one.
if [[ "$FAST" -eq 0 ]]; then
  step_t 300 "omnitop detector gate" \
    cargo run "${CARGO_FLAGS[@]}" --release -p omnireduce-bench \
    --bin omnitop -- --demo --check
fi

# Zero-allocation hot-path gate (single-shard, 2-shard,
# flight-recorder and background-sampler lanes): fails if a
# steady-state round allocates, if ns/block regresses >2x past the
# committed baseline, if the live recorder costs more than 10% over the
# disabled-lane loop, or if a live sampler costs more than 5%.
if [[ "$FAST" -eq 0 ]]; then
  step "hotpath allocation gate" \
    cargo run "${CARGO_FLAGS[@]}" --release -p omnireduce-bench \
    --bin ablation_hotpath -- --check
fi

# Sharding scaling gate: goodput at 1% block density must grow strictly
# monotonically from 1 to 4 aggregators (§4).
if [[ "$FAST" -eq 0 ]]; then
  step "sharding scaling gate" \
    cargo run "${CARGO_FLAGS[@]}" --release -p omnireduce-bench \
    --bin ablation_sharding -- --check
fi

# Failover recovery-time gate (§12): every seeded primary-crash run
# must fail over to the standby and finish bit-identical to its clean
# twin, with max takeover downtime within 4x the committed baseline.
if [[ "$FAST" -eq 0 ]]; then
  step_t 300 "failover recovery-time gate" \
    cargo run "${CARGO_FLAGS[@]}" --release -p omnireduce-bench \
    --bin ablation_failover -- --check
fi

# Multi-tenant goodput gate (§15): 1/2/4/8 concurrent tenants over one
# shared 2-shard fleet. Aggregate goodput must stay tolerance-monotone
# as the tenant count doubles (a serialization or head-of-line
# regression collapses it), and the 8-tenant p99 round latency must
# stay within 4x the committed baseline.
if [[ "$FAST" -eq 0 ]]; then
  step_t 300 "multitenant goodput gate" \
    cargo run "${CARGO_FLAGS[@]}" --release -p omnireduce-bench \
    --bin ablation_multitenant -- --check
fi

# Simnet scaling gate (§13): Fig 1/Fig 7 curves at 128..1024 workers on
# racked fabrics. Parallel runs must stay bit-identical to sequential at
# every scale; sequential events/s must hold 1/4x of the committed
# baseline; and on hosts with >= 4 cores the 256-worker point must show
# a >= 2x parallel speedup (single-core hosts report the ratio but gate
# only on identity — a conservative engine cannot beat sequential
# without real cores).
if [[ "$FAST" -eq 0 ]]; then
  step_t 300 "simnet scaling gate" \
    cargo run "${CARGO_FLAGS[@]}" --release -p omnireduce-bench \
    --bin ablation_simnet_scale -- --check
fi

if cargo fmt --version >/dev/null 2>&1; then
  step "fmt" cargo fmt --all -- --check
else
  echo "==> fmt: rustfmt not installed, skipping"
fi

if cargo clippy --version >/dev/null 2>&1; then
  step "clippy" cargo clippy "${CARGO_FLAGS[@]}" --workspace --all-targets -- -D warnings
else
  echo "==> clippy: not installed, skipping"
fi

if [[ "$failures" -gt 0 ]]; then
  echo "ci: ${failures} step(s) failed"
  exit 1
fi
echo "ci: all steps passed"
