#!/bin/sh
# Pre-PR gate: formatting, vet, build, tests. Run from the repo root.
set -eu

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# One instrumentation route in the dispatch layer: internal/core/events.go
# folds every event into Stats, the metrics registry and the trace
# recorder, so no other non-test file in internal/core may call a registry
# method, build a metrics.Labels or trace.Record literal, or write Stats.
sinks=$(grep -nE 'metrics\.Labels\{|\.(Counter|Gauge|Histogram)\(|trace\.Record\{|stats\.[A-Za-z.]+ *([-+*/]?=[^=]|\+\+|--)' internal/core/*.go |
	grep -v '_test\.go:' | grep -v '^internal/core/events\.go:' || true)
if [ -n "$sinks" ]; then
	echo "check.sh: instrumentation outside internal/core/events.go (emit an event instead):" >&2
	echo "$sinks" >&2
	exit 1
fi

# On amd64, vet's asmdecl pass also checks elem's AVX2 sum bodies.
go vet ./...
go build ./...
# Other architectures build elem's scalar stubs (sum_other.go) instead.
GOARCH=arm64 go vet ./internal/elem
GOARCH=arm64 go build ./...
# Other systems build device's no-op huge-page advice (hugepage_other.go).
GOOS=darwin go vet ./internal/device
GOOS=windows go build ./...
# Verdicts and modeled times must not depend on the thread count. -p 1
# runs one test binary at a time: dl's alone peaks near 4.7 GB.
for procs in 1 4; do
	GOMAXPROCS=$procs go test -count=1 -p 1 ./...
done
# bench/ is its own module on the public APIs: an API change that breaks
# the benchmark fails here rather than at benchmark time.
(cd bench && go vet ./... && go test ./...)
# Every relative link and repo path the docs mention must resolve.
scripts/doclinks.sh
# Every exported function has a non-test caller or an allowlist entry.
scripts/deadexports.sh
# Packages whose state sim processes, shards, worker pools or parallel
# worlds share run under the race detector.
go test -race mpixccl/internal/metrics mpixccl/internal/sim mpixccl/internal/fault mpixccl/internal/fabric mpixccl/internal/core mpixccl/internal/ccl mpixccl/internal/ccl/comp mpixccl/internal/mpi mpixccl/internal/world
# experiments and dl are raced only on their shared-state tests (parallel
# runner, chaos soak, sharded scale model; elastic recovery, persistent
# loop): their other tests are single-kernel and wall-clock heavy.
go test -race -run 'TestRunAll|TestChaosShort|TestScale' mpixccl/internal/experiments
go test -race -run 'TestTrainElastic|TestTrainPersistent' mpixccl/internal/dl
# Fuzz smoke: a few seconds of coverage-guided input per fuzz target, on
# top of the seed corpora the suite already ran.
go test -run '^$' -fuzz '^FuzzParseTable$' -fuzztime 5s mpixccl/internal/core
go test -run '^$' -fuzz '^FuzzParseKey$' -fuzztime 5s mpixccl/internal/ccl/comp
go test -run '^$' -fuzz '^FuzzParsePartition$' -fuzztime 5s mpixccl/cmd/ombrun
go test -run '^$' -fuzz '^FuzzParseAt$' -fuzztime 5s mpixccl/cmd/xcclbench
go test -run '^$' -fuzz '^FuzzParseScale$' -fuzztime 5s mpixccl/cmd/xcclbench
go test -run '^$' -fuzz '^FuzzReduceChain$' -fuzztime 5s mpixccl/internal/elem
go test -run '^$' -fuzz '^FuzzReduceTree$' -fuzztime 5s mpixccl/internal/elem
echo "check.sh: all clean"
