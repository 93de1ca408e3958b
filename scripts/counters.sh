#!/usr/bin/env bash
# The counter gate: every benchmark workload's exact work counters, as one
# committed file.
#
#   scripts/counters.sh            # rewrites results/counters.txt
#   git diff --exit-code results/counters.txt
#
# Runs `benchmark/run.sh --workload <w> --seed 1 --seconds 1 --trace 1`
# for each workload and writes one row per workload of the counters that
# repeat exactly for a workload and seed (operation counts are rate ×
# seconds, so they do not depend on the machine): SHA-256 blocks,
# signature checks and signs, ECalls, request bytes, fsyncs, proof bytes
# per query, the serving front's seed-exact tallies and the client's
# storage bytes, each per operation as the benchmark reports it, and the
# heap allocations and bytes requested on the single-threaded workloads
# (`blocks_kv`, `blocks_io`, `queries_cold`, where two runs agree exactly).
# A column is its metric's name without the layer prefix (`alloc.*` keep
# theirs); `-` where a workload does not report it or it is not gated there. Values are read as
# `scripts/ab.sh` reads them, through `scripts/counter.awk`. On `fleet_sb`
# and `serve_mixed` `alloc.*` are printed on stdout, not written: there a
# few allocations follow thread order or load. Exits non-zero if a run
# fails its correctness gate. Nothing under benchmark/ changes; each run's
# output stays in target/counters/.
set -euo pipefail
cd "$(dirname "$0")/.."

workloads=(blocks_kv blocks_io fleet_sb queries_cold serve_mixed)
gated=(primitives.sha256_blocks primitives.sig_verifies primitives.sig_signs sgx.ecalls
    sgx.request_bytes store.fsyncs query.proof_bytes_per_query
    serve.backend_calls serve.cache_hit_ratio serve.coalesce_ratio serve.cancelled
    serve.shed_admission serve.shed_pump serve.invalidations serve.wait_ticks_p50
    serve.wait_ticks_p99 client_storage_bytes)
allocs=(alloc.count alloc.bytes)
# The workloads whose allocations repeat exactly, run to run.
alloc_gated=" blocks_kv blocks_io queries_cold "

runs="target/counters"
mkdir -p "$runs"
out="results/counters.txt"

# counter FILE METRIC: the metric's value in that run's output.
counter() {
    awk -v name="$2" -f scripts/counter.awk "$1"
}

rows="$runs/rows.txt"
echo "workload ${gated[*]#*.} ${allocs[*]}" > "$rows"
for workload in "${workloads[@]}"; do
    file="$runs/$workload.txt"
    if ! bash benchmark/run.sh --workload "$workload" --seed 1 --seconds 1 --trace 1 \
        > "$file" 2> "$runs/$workload.log"; then
        echo "$workload failed: $runs/$workload.log" >&2
        exit 1
    fi
    row="$workload"
    for name in "${gated[@]}"; do
        value="$(counter "$file" "$name")"
        row+=" ${value:--}"
    done
    for name in "${allocs[@]}"; do
        value="$(counter "$file" "$name")"
        if [[ "$alloc_gated" == *" $workload "* ]]; then
            row+=" ${value:--}"
        else
            row+=" -"
            echo "$workload $name $value (not gated)"
        fi
    done
    echo "$row" >> "$rows"
done
{
    echo "# Exact work counters per operation, one row per workload: benchmark/run.sh"
    echo "# --seed 1 --seconds 1 --trace 1, read by scripts/counters.sh (columns: the"
    echo "# metric names without their layer prefix; alloc.* in full, and only on the"
    echo "# single-threaded workloads). Regenerate with that script; CI fails when the"
    echo "# committed file differs from a fresh run."
    # Columns padded to their widest cell.
    awk '
        { for (i = 1; i <= NF; i++) { cell[NR, i] = $i; if (length($i) > w[i]) w[i] = length($i) } }
        END {
            for (r = 1; r <= NR; r++) {
                line = ""
                for (i = 1; i < NF; i++) line = line sprintf("%-" (w[i] + 2) "s", cell[r, i])
                print line cell[r, NF]
            }
        }' "$rows"
} > "$out"
