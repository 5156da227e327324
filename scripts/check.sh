#!/usr/bin/env bash
# Repo gate: formatting (with simplification), build, vet, godoc coverage
# over the API packages, the docs-drift check (REPRODUCTION.md and the SVG
# figures must match what cmd/warpreport regenerates from the checked-in
# manifest), full test suite (including the golden-stats regression in
# internal/exp, the golden rendering tests in internal/report and the seed
# corpora of the ISA-parser (FuzzParse), analyzer (FuzzAnalyze),
# store-entry, manifest-join and POST /v1/jobs fuzz targets, which are
# ordinary tests, and the paper-claims inequalities over full.json), the
# parallel-runner determinism tests under the race detector, one
# iteration of the sched/core pick, mem L2-queue, completion-wheel and
# L1-miss, server Submit-hit and kernel suite-build benchmarks (so they
# cannot rot), the warplint
# static analyzer over every registered kernel, an invariant-checked
# simulation smoke pass (-check arms the runtime invariant checker and
# hang diagnosis; the third run is the 64-slot machine, the full width of
# the engine's warp-slot masks), and the vet + smoke test of the nested bench/ module
# (tier-1 `go test ./...` does not compile it, so this is where an API
# rename that breaks the benchmark is caught). Run from the repo root:
#
#   scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt -s =="
unformatted="$(gofmt -s -l .)"
if [[ -n "$unformatted" ]]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== warplint =="
go run ./cmd/warplint -all

echo "== golint-internal (determinism + store durability lint) =="
go run ./cmd/golint-internal

echo "== doccheck (godoc coverage) =="
go run ./cmd/doccheck

echo "== report drift (REPRODUCTION.md + docs/figures) =="
go run ./cmd/warpreport -manifest internal/report/testdata/full.json \
    -md REPRODUCTION.md -svg-dir docs/figures -check

echo "== go test =="
go test ./...

echo "== go test -race (runner determinism, resume from the store-backed journal, fault injection) =="
go test -race ./internal/exp -run TestRunner
go test -race ./internal/sim -run 'TestFaultInjectionStress|TestFaultDeterminism'

echo "== pick, detector, mem, Submit-hit and suite-build benchmarks still build and run (one iteration) =="
go test -run '^$' -bench 'PickMask|OnSetp' -benchtime 1x ./internal/sched ./internal/core
go test -run '^$' -bench 'L2|EventWheel|L1Miss' -benchtime 1x ./internal/mem
go test -run '^$' -bench 'Submit' -benchtime 1x ./internal/server
go test -run '^$' -bench 'SuiteBuild' -benchtime 1x ./internal/kernels

echo "== invariant-checked smoke (warpsim -check) =="
go run ./cmd/warpsim -kernel HT -sms 2 -check > /dev/null
go run ./cmd/warpsim -kernel ATM -sms 2 -bows ddos -check -fault-seed 7 > /dev/null
go run ./cmd/warpsim -kernel HT -gpu pascal -sms 2 -sched CAWA -bows ddos -check > /dev/null

echo "== persistent store smoke (crash-restart round trip) =="
go test ./internal/store -run 'TestRoundTrip|TestCrashRestartLoop' -count=1

echo "== bench module (vet + smoke) =="
go -C bench vet ./...
go -C bench test ./...

echo "OK"
