#!/bin/sh
# Build, test, run and check the benchmark. Not wired into ci.yml yet: a
# later change does that. Run from anywhere; needs no network.
#
# The last step holds this run's counted and simulated metrics against the
# committed ledger row. Those repeat exactly for one seed on any machine;
# timings do not, so they are compared only between runs on one box:
#   cc-perf run --out before.json; ...; cc-perf run --out after.json
#   cc-perf compare before.json after.json
set -eu
cd "$(dirname "$0")"
target=${CARGO_TARGET_DIR:-target}

cargo build --release --offline
cargo test --release --offline
"$target/release/cc-perf" run --seed 1 --out "$target/ci_ledger.json"
"$target/release/cc-perf" compare --exact ledger/BENCH_11.json "$target/ci_ledger.json"
