#!/usr/bin/env bash
# Performance trajectory artifacts at full size: one machine-readable
# JSON object per gated experiment, written by `repro <exp> --json` to
# ${BENCH_OUT:-target/bench}/BENCH_<exp>.json (diff them across
# checkouts). Each object carries "exp", "quick" and "gate" plus the
# experiment's own fields; the text table goes to the terminal.
#
#   BENCH_o1.json — R-O1 telemetry self-overhead per command class
#   BENCH_m1.json — R-M1 migration downtime vs state size
#   BENCH_d1.json — R-D1 sentinel detection + engine ns per event
#   BENCH_p1.json — R-P1 manager scaling sweep (read/mutate ns per cmd)
#   BENCH_c1.json — R-C1 crypto floor (RSA/AES/SHA) + thresholds
#   BENCH_a1.json — R-A1 attestation issuance/verification/defense
#   BENCH_m2.json — R-M2 fleet churn sweep + detector/tick costs
#   BENCH_o2.json — R-O2 fleet observatory fidelity/loop/overhead
#
# Exits nonzero as soon as an experiment's gate fails. The CI-sized
# artifacts come from `scripts/ci.sh`, which writes the same files.
#
# Usage:
#   scripts/bench.sh
#   BENCH_OUT=/tmp scripts/bench.sh   # artifact directory

set -euo pipefail
cd "$(dirname "$0")/.."

out_dir="${BENCH_OUT:-target/bench}"
mkdir -p "$out_dir"

for exp in o1 m1 d1 p1 c1 a1 m2 o2; do
    echo "== repro $exp -> ${out_dir}/BENCH_${exp}.json =="
    cargo run --release -p vtpm-bench --bin repro -- "$exp" --json \
        > "${out_dir}/BENCH_${exp}.json"
done
