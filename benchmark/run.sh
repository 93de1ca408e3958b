#!/usr/bin/env bash
# Builds the benchmark offline from source, then runs it:
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace [0|1]] [--runs N] [--out FILE]
#   benchmark/run.sh compare BASELINE.json CANDIDATE.json
#
# Without --workload every workload runs, each in its own process. The
# exit status is non-zero unless every correctness gate passed. See
# benchmark/README.md.
set -euo pipefail

here="$(dirname "$0")"
# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# run from, which is also where this script looks for the binary.
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --locked \
    --manifest-path "$here/Cargo.toml" --bin dcert-benchmark >&2

# Scratch directories, traces and default result files stay under
# benchmark/out/ wherever the script is called from.
export DCERT_BENCHMARK_OUT="$here/out"
exec "$target/release/dcert-benchmark" "$@"
