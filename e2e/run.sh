#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it.
#
#   e2e/run.sh                       the whole suite: every workload, measured + traced
#   e2e/run.sh --workload mix_io     one workload of the suite
#   e2e/run.sh --check               the suite twice; fails if the two disagree
#   e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#                                    one run, ending in a one-line JSON result
#                                    (the form BENCHMARK.json's driver uses)
set -euo pipefail

here="$(dirname "$0")"
# Relative CARGO_TARGET_DIR values resolve against the caller's directory,
# for cargo and for the path below alike, because this script never cd's.
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/qpipe-e2e" "$@" --out "$here/out"
