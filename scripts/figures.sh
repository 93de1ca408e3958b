#!/usr/bin/env bash
# Regenerates every results/*.txt, one run of one figure binary each:
#
#   scripts/figures.sh          # smoke scale (the per-figure scales below)
#   scripts/figures.sh full     # DCERT_SCALE=1, the paper's parameters
#
# Every binary asserts its own shape beside the row that shows it, so a
# figure that loses its shape exits non-zero and so does this script.
# Deterministic shapes hold at every scale; wall-clock relations are only
# asserted by `full`. Builds offline: the workspace carries everything it
# names (see DESIGN.md §2).
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-smoke}"
[[ "$mode" == smoke || "$mode" == full ]] || { echo "usage: $0 [smoke|full]" >&2; exit 2; }

cargo build --release --offline --locked -p dcert-bench >&2
bin="${CARGO_TARGET_DIR:-target}/release"

# binary                  smoke scale  results file
figures="
table1_params             1      table1
fig7_bootstrap            0.002  fig7
fig8_cert_construction    0.02   fig8
fig9_block_size           0.02   fig9
fig10_index_certs         0.02   fig10
fig11_queries             0.02   fig11
ablation_batching         0.02   batching
ablation_stateless        0.02   ablation
tee_comparison            0.02   tee
fig_store_coldstart       0.02   fig_store_coldstart
fig_serve                 0.02   fig_serve
fig_proof_bytes           0.05   fig_proof_bytes
fig_shard_scaling         0.5    fig_shard_scaling
fig_micro                 0.1    fig_micro
"
mkdir -p results
while read -r name smoke out; do
    [[ -n "$name" ]] || continue
    [[ "$mode" == full ]] && scale=1 || scale="$smoke"
    echo "== $name (DCERT_SCALE=$scale) -> results/$out.txt" >&2
    DCERT_SCALE="$scale" "$bin/$name" > "results/$out.txt"
done <<< "$figures"
