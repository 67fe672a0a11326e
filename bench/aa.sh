#!/usr/bin/env bash
# A/A check: the full benchmark in two interleaved sets of N runs (default 3)
# of the same code, each run on another seed. Prints, per (metric, workload),
# both medians, their difference and the bound; exits nonzero on any pair
# outside its bound, and prints `unresolved` where a set's own spread exceeds it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec "$here/run.sh" --aa "${1:-3}" "${@:2}"
