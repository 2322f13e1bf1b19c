#!/bin/sh
# Host-benchmark recorder: runs the BenchmarkHost* suite (host
# wall-clock cost of the simulator, as opposed to the simulated
# numbers in the kcmbench tables) and records, per benchmark, the
# median, minimum and maximum ns/op over the repetitions in
# BENCH_<n>.json, together with a host fingerprint (CPU model, CPU
# count, Go version).
#
#   scripts/hostbench.sh [n]        # writes BENCH_<n>.json (default n=0)
#
# Environment:
#   HOSTBENCH_COUNT     repetitions per benchmark (default 5 — the host
#                       is shared and single runs are noisy, so the
#                       spread is recorded beside the median)
#   HOSTBENCH_TIME      go -benchtime per repetition (default 1s)
#   HOSTBENCH_BASELINE  path to a previously generated BENCH_*.json;
#                       its benchmark block is embedded as "baseline"
#                       so the file carries its own comparison point
set -eu
cd "$(dirname "$0")/.."

n=${1:-0}
count=${HOSTBENCH_COUNT:-5}
btime=${HOSTBENCH_TIME:-1s}
out="BENCH_${n}.json"
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench '^BenchmarkHost' -benchmem -benchtime "$btime" -count "$count" . | tee "$raw"
# The pool benchmark again at explicit parallelism levels: entries keep
# their -cpu suffix (PoolNrev-4, PoolNrev-8) so the file records the
# scaling curve. Scaling is bounded by the host's CPU count, which the
# fingerprint below records.
go test -run '^$' -bench '^BenchmarkHostPoolNrev$' -benchmem -benchtime "$btime" -count "$count" -cpu 1,4,8 . | tee -a "$raw"

cpu=$(awk -F': *' '/^model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)
{
    printf '{\n'
    printf '  "bench_id": "%s",\n' "$n"
    printf '  "host": {"cpu_model": "%s", "nproc": %s, "go_version": "%s"},\n' \
        "${cpu:-unknown}" "$(nproc)" "$(go env GOVERSION) $(go env GOOS)/$(go env GOARCH)"
    printf '  "protocol": "%s runs x %s per benchmark, warm machine (see hostbench_test.go); ns_op is the median, ns_min/ns_max the range; bytes_op/allocs_op are the largest seen",\n' "$count" "$btime"
    printf '  "benchmarks": {\n'
    awk '
    /^BenchmarkHost/ {
        name = $1
        sub(/^BenchmarkHost/, "", name)
        # Pool benchmarks keep their -cpu suffix: the scaling across
        # parallelism levels is the datum.
        if (name !~ /^Pool/) sub(/-[0-9]+$/, "", name)
        delete v
        for (i = 3; i < NF; i += 2) v[$(i + 1)] = $i
        if (!(name in cnt)) { order[++m] = name }
        k = ++cnt[name]
        ns[name, k]   = v["ns/op"] + 0
        mips[name, k] = v["host-Mips"] + 0
        klips[name]   = v["simulated-Klips"] + 0
        if (k == 1 || v["B/op"] + 0 > bytes[name])      bytes[name]  = v["B/op"] + 0
        if (k == 1 || v["allocs/op"] + 0 > allocs[name]) allocs[name] = v["allocs/op"] + 0
    }
    # median NAME ARRAY: sorts the NAME entries of ARRAY in place and
    # returns their median.
    function median(name, a,    i, j, c, t) {
        c = cnt[name]
        for (i = 2; i <= c; i++)
            for (j = i; j > 1 && a[name, j - 1] > a[name, j]; j--) {
                t = a[name, j]; a[name, j] = a[name, j - 1]; a[name, j - 1] = t
            }
        if (c % 2) return a[name, (c + 1) / 2]
        return (a[name, c / 2] + a[name, c / 2 + 1]) / 2
    }
    END {
        for (i = 1; i <= m; i++) {
            b = order[i]
            med = median(b, ns)
            printf "    \"%s\": {\"ns_op\": %d, \"ns_min\": %d, \"ns_max\": %d, \"bytes_op\": %d, \"allocs_op\": %d, \"simulated_klips\": %.1f, \"host_mips\": %.1f}%s\n",
                b, med, ns[b, 1], ns[b, cnt[b]], bytes[b], allocs[b], klips[b], median(b, mips), (i < m) ? "," : ""
        }
    }' "$raw"
    printf '  }'
    if [ -n "${HOSTBENCH_BASELINE:-}" ] && [ -f "${HOSTBENCH_BASELINE}" ]; then
        printf ',\n  "baseline": {\n'
        # Copy the benchmark block of the baseline file (one line per
        # benchmark in the format written above).
        awk '
        /"benchmarks": \{/ { inb = 1; next }
        inb && /^  \}/     { inb = 0 }
        inb                { print }
        ' "${HOSTBENCH_BASELINE}"
        printf '  }\n'
    else
        printf '\n'
    fi
    printf '}\n'
} > "$out"

echo "wrote $out"
