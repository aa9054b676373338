#!/usr/bin/env bash
# Seeded chaos sweep over the full vTPM stack (see crates/harness).
#
# Runs N seeded scenarios (default 32) in release mode, spread across
# all cores (seeds are independent; output stays in seed order). The
# chaos CLI already executes every scenario twice and reports "REPLAY
# MISMATCH" when the two runs differ, so a non-zero exit here means
# either an oracle divergence, a CTR nonce reuse, a telemetry
# conservation violation, or a nondeterministic replay.
#
# Every scenario family runs: the single-host mirror pipeline, the
# multi-host migration scenarios (plus the exhaustive crash-at-every-
# step migration matrix on one extra seed), and the attestation-plane
# quote-storm/replay scenarios.
#
# Seed labels: the chaos CLI appends the family to the base label
# (CHAOS_BASE, default `chaos`), so base `B` runs `B-N` (mirror),
# `B-mig-N`, `B-att-N`, `B-fleet-N` and the matrix seed `B-matrix`.
# Pass a bare base such as `ci`, not `ci-mig`.
#
# Usage:
#   scripts/chaos.sh                 # 32 seeds/family, encrypted mirror
#   scripts/chaos.sh 64              # more seeds
#   scripts/chaos.sh 32 cleartext    # baseline mirror mode
#   CHAOS_BASE=nightly scripts/chaos.sh   # seeds nightly-N, nightly-mig-N, ...
#   CHAOS_JOBS=4 scripts/chaos.sh    # cap worker threads
#   CHAOS_FAMILY=mirror scripts/chaos.sh  # one family only
#   CHAOS_FAMILY=attest scripts/chaos.sh  # attestation plane only

set -euo pipefail
cd "$(dirname "$0")/.."

seeds="${1:-32}"
mode="${2:-encrypted}"
base="${CHAOS_BASE:-chaos}"
jobs="${CHAOS_JOBS:-$(nproc 2>/dev/null || echo 1)}"
family="${CHAOS_FAMILY:-all}"

# The crash matrix only makes sense when migration scenarios run.
matrix=()
case "$family" in
migration | both | all)
    matrix=(--matrix)
    ;;
esac

exec cargo run --release -p vtpm-harness --bin chaos -- \
    --seeds "$seeds" --mode "$mode" --base "$base" --jobs "$jobs" \
    --family "$family" "${matrix[@]}"
