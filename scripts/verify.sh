#!/bin/sh
# Tier-1 verification gate. Everything here must pass before a change
# lands: formatting, vet, build, the full test suite under the race
# detector, and the static bytecode verifier over every example
# program and the whole benchmark suite.
set -eu
cd "$(dirname "$0")/.."

echo '== gofmt'
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed:" >&2
    echo "$fmt" >&2
    exit 1
fi

echo '== go vet'
go vet ./...

echo '== go build'
go build ./...

echo '== go test -race'
go test -race ./...

echo '== engine pool race tests (plain and traced/profiled)'
go test -race -run 'TestPoolRace|TestPoolTraceRace' ./internal/engine/

echo '== dynamic differential gate (assert-built == statically-compiled, incl. warm counters and a tail compaction; re-install across a re-layout)'
go test -count=1 -run 'TestDynamicDifferential' ./internal/machine/
go test -count=1 -run 'TestCompactionReinstallsStore|TestCompactionMutualRecursion' ./internal/dyndb/
go test -count=1 -run 'TestPooledMachineAcrossCompaction|TestParkedBlobStaleAcrossCompaction' ./internal/engine/

echo '== tenant tail bound (tail words <= 2*live + CompactFloor after every one of 2000 writes on 4 tenants)'
go test -count=1 -run 'TestTailBound' ./internal/dyndb/

echo '== dyndb fuzz smoke (assert/retract vs model, malformed-clause rejection)'
go test -count=1 -run '^$' -fuzz 'FuzzAssertRetract' -fuzztime 5s ./internal/dyndb/
go test -count=1 -run '^$' -fuzz 'FuzzMalformedClause' -fuzztime 5s ./internal/dyndb/

echo '== snapshot round-trip gate (suspend/resume byte-identity, in-process and across restart)'
go test -count=1 -run 'TestSuspendResumeByteIdentical|TestWarmStampParity' ./internal/engine/
go test -count=1 -run 'TestSuspendResumeAcrossRestart|TestDrainParksSessionsToDisk|TestRefusedBlobRemoved' ./internal/server/

echo '== one query path (1000 distinct goals stay on one image and pool-size machines; goal-text cap)'
go test -count=1 -run 'TestDistinctGoalsBounded|TestGoalTextCap' ./internal/server/

echo '== snapshot blob fuzz smoke (mutated blobs must fail typed, never panic, never corrupt)'
go test -count=1 -run '^$' -fuzz 'FuzzRestoreBlob' -fuzztime 5s ./internal/machine/

echo '== cycle-count pin (kcmbench counters must not drift)'
go test -run 'TestCyclePin' ./internal/bench/

echo '== gc stress (benchmarks in tiny heaps, several collections, under -race)'
go test -race -run 'TestGCStress' ./internal/bench/

echo '== coverage floors (scripts/coverage_floors.txt)'
covprofile=$(mktemp)
trap 'rm -f "$covprofile"' EXIT
covpkgs=$(grep -v '^#' scripts/coverage_floors.txt | awk 'NF {printf "%s%s", sep, "./" substr($1, index($1, "/") + 1); sep=","}')
go test -count=1 "-coverpkg=$covpkgs" "-coverprofile=$covprofile" ./... > /dev/null
# The profile concatenates one block list per test binary; a block is
# covered if any binary hit it, so dedupe by block key before summing.
awk 'NR > 1 {
    key = $1; stmts[key] = $2
    if ($3 > 0) hit[key] = 1
}
END {
    for (k in stmts) {
        pkg = k
        sub(/:.*/, "", pkg)
        sub(/\/[^\/]*\.go$/, "", pkg)
        tot[pkg] += stmts[k]
        if (hit[k]) cov[pkg] += stmts[k]
    }
    while ((getline line < "scripts/coverage_floors.txt") > 0) {
        if (line ~ /^#/ || line !~ /[^ ]/) continue
        split(line, f, " ")
        pct = (tot[f[1]] > 0) ? 100 * cov[f[1]] / tot[f[1]] : 0
        printf "%-28s %5.1f%% (floor %s%%)\n", f[1], pct, f[2]
        if (pct < f[2] + 0) {
            print "FAIL: " f[1] " coverage " pct "% below floor " f[2] "%" > "/dev/stderr"
            bad = 1
        }
    }
    exit bad
}' "$covprofile"

echo '== kcmd smoke (ephemeral port: query + stream + cancel + tenant + suspend/resume across restart, clean drain)'
go run ./cmd/kcmd -smoke

echo '== kcmvet (strict: analyzer warnings are errors)'
go run ./cmd/kcmvet -strict -bench examples/*/main.go

echo '== kcmlint (host-source lint: sentinel errors, hot-loop allocs, Kind switches, handler discipline)'
go run ./cmd/kcmlint .

echo '== host-bench smoke (warm nrev must run allocation-free)'
out=$(go test -run '^$' -bench '^BenchmarkHostNrev$' -benchtime 1x -benchmem .)
echo "$out"
echo "$out" | awk '
/^BenchmarkHostNrev/ {
    seen = 1
    for (i = 1; i < NF; i++) {
        if ($(i + 1) == "allocs/op" && $i + 0 != 0) {
            print "FAIL: " $i " allocs/op on warm nrev, want 0" > "/dev/stderr"
            exit 1
        }
    }
}
END { if (!seen) { print "FAIL: BenchmarkHostNrev did not run" > "/dev/stderr"; exit 1 } }
'

echo 'verify: all gates passed'
