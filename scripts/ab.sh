#!/usr/bin/env bash
# A/B of one benchmark workload: a commit against the working tree.
#
#   scripts/ab.sh <rev> <workload> [pairs] [run.sh options...]
#   scripts/ab.sh HEAD~1 queries_cold 10 --seed 3
#
# Checks <rev> out with `git worktree` under target/ab/, then runs
# `benchmark/run.sh --workload <workload> --trace 0` alternately in that
# checkout ("base") and in the working tree ("head"), `pairs` times
# (default 10), swapping which side goes first every pair. Prints each
# end-to-end metric's median and quartiles per side and how many pairs
# each side won (a tie counts for neither). Then runs each side once with
# `--trace 1` and prints its exact work counters and the serving front's
# `serve.*` tallies side by side: they repeat for a given workload and
# seed, so one run per side is a proof, not a sample. After them come the
# journey's layer spans from the same two traced runs, for attribution
# only: one run of a time is not a claim. Each side builds into its own
# target directory under target/ab/, and every run's output stays in
# target/ab/runs/<workload>/. Nothing under benchmark/ changes. Do not
# edit the working tree while it runs: run.sh rebuilds the head side
# before every run. The checkout is reused by the next call; remove it
# with `git worktree remove target/ab/<sha>`.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"

usage="usage: $0 <rev> <workload> [pairs] [run.sh options...]"
[[ $# -ge 2 ]] || { echo "$usage" >&2; exit 2; }
rev="$1" workload="$2" pairs="${3:-10}"
shift $(($# >= 3 ? 3 : 2))
extra=("$@")
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "pairs must be a positive integer" >&2; exit 2; }

sha="$(git rev-parse --verify "$rev^{commit}")"
ab="$root/target/ab"
base="$ab/${sha:0:12}"
[[ -d "$base" ]] || git worktree add -q --detach "$base" "$sha"
runs="$ab/runs/$workload"
rm -rf "$runs"
mkdir -p "$runs"

# run SIDE CHECKOUT PAIR [TRACE]: one run, untraced unless TRACE is 1, its
# table kept for the summary.
run() {
    local out="$runs/$1-$3"
    if ! (cd "$2" && CARGO_TARGET_DIR="$ab/build-$1" bash benchmark/run.sh \
        --workload "$workload" --trace "${4:-0}" ${extra[@]+"${extra[@]}"}) > "$out.txt" 2> "$out.log"; then
        echo "$1 run $3 failed: $out.log" >&2
        exit 1
    fi
}

# The exact work counters the traced runs compare, then the serving front's
# tallies: seed-exact too, so a serving change shows in the same table that
# no admission or cache decision moved (each reads blank where no front runs).
counters=(primitives.sig_verifies primitives.sig_signs primitives.sha256_blocks sgx.ecalls
    sgx.request_bytes store.fsyncs client_storage_bytes alloc.count alloc.bytes
    query.proof_bytes_per_query
    serve.backend_calls serve.cache_hit_ratio serve.coalesce_ratio serve.cancelled
    serve.shed_admission serve.shed_pump serve.invalidations serve.wait_ticks_p50
    serve.wait_ticks_p99)

# The journey's layer spans printed from the traced runs (times: one run each).
spans=(chain.mine_us query.sp.stage_us core.ci.certify_us core.archive.publish_us
    core.superlight.sync_us)

# counter FILE METRIC: the metric's value in that run's output.
counter() {
    awk -v name="$2" -f scripts/counter.awk "$1"
}

# SIDE PAIR METRIC VALUE DIRECTION, one line per end-to-end metric of a run:
# names and directions from the table, values from the JSON line after it
# (the table rounds to four decimals, too few for sub-microsecond ms).
end_to_end() {
    awk -v side="$1" -v pair="$2" '
        /^-- end-to-end --/ { on = 1; next }
        /^-- / { on = 0 }
        on && /is better\)$/ {
            name[++n] = $1
            value[n] = $2
            better[n] = $0 ~ /higher is better/ ? "higher" : "lower"
        }
        /^\{/ { json = $0 }
        END {
            for (i = 1; i <= n; i++) {
                if (match(json, "\"" name[i] "\":\\{\"unit\":\"[^\"]*\",\"value\":[-0-9.eE+]+")) {
                    value[i] = substr(json, RSTART, RLENGTH)
                    sub(/.*"value":/, "", value[i])
                }
                print side, pair, name[i], value[i], better[i]
            }
        }
    ' "$runs/$1-$2.txt"
}

echo "base = $rev (${sha:0:12}), head = working tree; $workload, $pairs pairs" >&2
for ((i = 1; i <= pairs; i++)); do
    echo "pair $i/$pairs" >&2
    if ((i % 2)); then
        run base "$base" "$i"
        run head "$root" "$i"
    else
        run head "$root" "$i"
        run base "$base" "$i"
    fi
done

for ((i = 1; i <= pairs; i++)); do
    end_to_end base "$i"
    end_to_end head "$i"
done | awk -v pairs="$pairs" '
    function sort(a, n,    i, j, t) {
        for (i = 2; i <= n; i++) {
            t = a[i]
            for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]
            a[j + 1] = t
        }
    }
    # The p-quantile of sorted a[1..n], interpolated between ranks.
    function quantile(a, n, p,    x, i) {
        x = 1 + (n - 1) * p
        i = int(x)
        return i < n ? a[i] + (x - i) * (a[i + 1] - a[i]) : a[n]
    }
    function summary(a, n) {
        sort(a, n)
        return sprintf("%12.6g %12.6g %12.6g", quantile(a, n, 0.25), quantile(a, n, 0.5), quantile(a, n, 0.75))
    }
    {
        value[$1, $2, $3] = $4 + 0
        better[$3] = $5
        if (!($3 in seen)) { seen[$3]; order[++metrics] = $3 }
    }
    END {
        printf "%-22s %-7s %38s %38s %9s %9s\n", "metric", "better", "base q1 / median / q3", "head q1 / median / q3",
            "head won", "base won"
        for (k = 1; k <= metrics; k++) {
            m = order[k]
            head_won = base_won = 0
            for (i = 1; i <= pairs; i++) {
                b[i] = value["base", i, m]
                h[i] = value["head", i, m]
                gain = better[m] == "higher" ? h[i] - b[i] : b[i] - h[i]
                if (gain > 0) head_won++
                else if (gain < 0) base_won++
            }
            printf "%-22s %-7s %38s %38s %9s %9s\n", m, better[m], summary(b, pairs), summary(h, pairs),
                head_won "/" pairs, base_won "/" pairs
        }
    }
'

echo "traced runs" >&2
run base "$base" traced 1
run head "$root" traced 1
printf "%-34s %20s %20s\n" "counter (one traced run)" "base" "head"
for name in "${counters[@]}"; do
    printf "%-34s %20s %20s\n" "$name" "$(counter "$runs/base-traced.txt" "$name")" \
        "$(counter "$runs/head-traced.txt" "$name")"
done
printf "%-34s %20s %20s\n" "layer span (one run, not a claim)" "base" "head"
for name in "${spans[@]}"; do
    printf "%-34s %20s %20s\n" "$name" "$(counter "$runs/base-traced.txt" "$name")" \
        "$(counter "$runs/head-traced.txt" "$name")"
done
