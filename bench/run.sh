#!/usr/bin/env bash
# The benchmark's one command. Without arguments: every workload, untraced
# then traced, seed 42, results in bench/out/results.json.
#
#   bench/run.sh [--workload NAME] [--seed S] [--scale F] [--seconds T]
#   bench/run.sh --workload NAME --seed S --seconds T --trace 0|1   (one run, as the driver calls it)
#
# Builds offline; the target directory is $CARGO_TARGET_DIR or bench/target.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- --out "$here/out" "$@"
