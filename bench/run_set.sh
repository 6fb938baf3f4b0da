#!/usr/bin/env bash
# One result set for `--compare`: every workload timed once per seed, and
# traced once with the first seed. Run from the repository root.
#
#   bench/run_set.sh <out-dir> [seed...]      (default seeds: 1..10)
set -euo pipefail
out=${1:?usage: bench/run_set.sh <out-dir> [seed...]}
shift
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2 3 4 5 6 7 8 9 10)
run() { cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- "$@" | tail -n 1; }
for w in rnn_latency stream_large sweep_grid serve_tail; do
    for s in "${seeds[@]}"; do
        run --workload "$w" --seed "$s" --trace 0 --out "$out/seed-$s"
    done
    run --workload "$w" --seed "${seeds[0]}" --trace 1 --out "$out/seed-${seeds[0]}"
done
