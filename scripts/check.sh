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

# On amd64, vet's asmdecl pass also checks the frame offsets and sizes of
# elem's AVX2 sum bodies (internal/elem/sum_amd64.s) against their Go
# declarations.
go vet ./...
go build ./...
# Every other architecture builds elem's scalar stubs instead
# (sum_other.go, !amd64): vet and build one such target so they keep
# compiling.
GOARCH=arm64 go vet ./internal/elem
GOARCH=arm64 go build ./...
go test ./...
# bench/ is a module of its own that compiles against the public core, dl,
# ccl and experiments APIs: vet and test it so an API change that breaks
# the benchmark fails here rather than at benchmark time.
(cd bench && go vet ./... && go test ./...)
# Docs are a public surface too: every relative link and repo path they
# mention must resolve.
scripts/doclinks.sh
# No dead exports: every exported function and method under internal/ and
# cmd/ has a non-test caller, or an allowlist entry with its reason
# (public API, a standard interface, a test hook another package calls).
scripts/deadexports.sh
# The packages whose state is shared across sim procs (or any caller):
# re-run under the race detector. internal/experiments exercises the
# parallel runner, whose worlds must not share mutable state; internal/core
# includes the concurrent-runtime breaker and fail-stop recovery tests plus
# the persistent-handle property tests (the zero-alloc measurements carry a
# !race build tag and step aside here — ReadMemStats deltas are meaningless
# under the detector's instrumented allocator). internal/fabric joins for
# the integrity retransmit loop (corruption probe + CRC verify on shared
# buffers).
# internal/sim's suite includes the sharded-engine tests (shard_test.go),
# whose windows genuinely run shards on separate OS threads — the race
# detector is the proof that cross-shard traffic only moves through the
# outbox/flush protocol.
# internal/ccl/comp is the collective compiler: the plan search is pure,
# but its lowered programs drive the executor's pipelined primitives, so
# the IR/cost/search suite joins the race rotation wholesale (it is small).
# internal/mpi hands its rendezvous sends, receives and nonblocking
# collectives to per-rank pools of resident progress processes (sim.Pool),
# shared by all of a job's communicators, runs its eager Isends as machines
# started as kernel callbacks (sim.Kernel.Start) over recycled per-rank
# states, and drives its blocking sends, receives and Sendrecvs, and every
# collective's per-call program, as machines on the rank's process or a
# progress process (sim.Proc.Drive), whose recycled states and programs
# the rank and its progress processes share; internal/sim's process runner advances
# one process's machine from another's pick (TestEventOrder*,
# TestGuardedActivationAllocs among the suite). internal/world builds
# every stack the harnesses run (its per-stack test drives all six, each
# reporting into one registry).
go test -race mpixccl/internal/metrics mpixccl/internal/sim mpixccl/internal/fault mpixccl/internal/fabric mpixccl/internal/core mpixccl/internal/ccl/comp mpixccl/internal/mpi mpixccl/internal/world
# The whole internal/mpi suite, which runs in a second or two and under
# the leak gate (simtest.Main: every world its tests build must be released
# by Job.Run, which closes the kernel) — among it the progress-pool pins
# (orphaned-Isend deadlock, idle pool, no-spawn waves, exact reuse times),
# the eager-send pins (same-instant tie order, exact contended, staged and
# retransmitted completions, orphaned eager Isend, no eager send on a
# progress process), the driven-machine pins (exact completion times and
# resume order of every receive protocol, Sendrecv, overhead tie and
# degraded rendezvous handshake in TestBlockingRecvVirtualTime, the
# blocked processes and reasons of TestDeadlockDetectedOnMissingSend, one
# rank resume per Recv, Sendrecv, Send, collective call and nonblocking
# collective's Wait in TestRankResumesPerCall), the collective programs'
# exact times, resume order and bytes for every algorithm branch
# (TestCollectiveVirtualTime), the exact scatter-ring Bcast times and the
# recycled envelopes — and the
# whole internal/fabric and internal/sim suites, each well under a second:
# the transfer machine's two runners (a process and kernel callbacks)
# agreeing on seeded transfer mixes under every fault setting, a finished
# transfer pinning no buffers, the kernel's hand-off semantics (a process's
# panic and t.FailNow reach Run, a driven machine's panic names its own
# process wherever it advanced, Close leaves no goroutine, the hand-off
# paths allocate nothing and so do a cross-shard message
# (TestShardedInjectAllocs), a contended acquire of a started machine
# (TestResourceFuncAllocs) and a driven machine that takes every kind of
# wait (TestGuardedActivationAllocs), same-instant and future events,
# resource grants to processes and to started and driven machines among
# them, run in (time, seq) order on plain and sharded kernels, Close drops
# a sharded engine's in-flight deliveries), the worker pool's pins (the
# same trace as a spawn per job, busy workers deadlock by name, idle ones
# end Run, Close unwinds both), the ccl no-spawn pin with compiled plans
# and group sends on the rank's resident workers, the one-shot
# steady-state allocation pin (recycled op states and pipes) and the
# exact-time pins, the owner-computes ring's and tree fan-in's bit and
# time equivalence with the hop-by-hop schedules (flat and hierarchical
# allreduce and reduce-scatter, persistent and partitioned waves), the
# byte regime fixed per op under integrity toggles, the owner passes in
# concurrent worlds,
# the group alltoall, the group-send verdict and deadlock pins, the
# send-recv synthesis's contract (argument checks before any fault probe,
# op-scoped probes, group abort, empty blocks), the flat-versus-
# hierarchical and forced-algorithm correctness properties of the group
# tree and ring that both paths run, the whole internal/core suite (about a
# second), where hybrid dispatch, membership and the instrumentation golden
# drive the MPI collectives: among it the world-release pins (a world run
# through Runtime.Run or ccl.Run, or ending in a deadlock or a panic, leaves
# no goroutine once Run returns), the membership suite (crash, revoke,
# shrink, grow, partition, heartbeat and admission parity) and the
# instrumentation golden (Stats, metrics and trace records of one scenario
# per event kind), and the world builder's per-stack and
# rank-count tests, at one
# and at several OS threads: processes are coroutines on
# goroutines of their own either way, and verdicts and modeled times must
# not depend on how many threads run them.
for procs in 1 4; do
	GOMAXPROCS=$procs go test -count=1 mpixccl/internal/mpi
	GOMAXPROCS=$procs go test -count=1 mpixccl/internal/fabric mpixccl/internal/sim
	GOMAXPROCS=$procs go test -count=1 -run 'TestSteadyStateSpawnsNoProcs|TestOneShotSteadyStateAllocs|TestCompiledPlanVirtualTime|TestRingScheduleVirtualTime|TestForcedFlatAlgorithms|TestHierarchicalMatchesFlat|TestGroup|TestSynthesized|TestFusedRing|TestByteRegime|TestReduceOnReceive' mpixccl/internal/ccl
	GOMAXPROCS=$procs go test -count=1 mpixccl/internal/core
	GOMAXPROCS=$procs go test -count=1 mpixccl/internal/world
done
# The experiments race leg covers the parallel runner, two RunAll calls
# with different Options in flight at once (TestRunAllConcurrentOptions),
# the chaos soak (short rotation: collective, elastic, and partition
# schedules), and the scale model's cross-shard fault/partition
# determinism tests.
go test -race -run 'TestRunAll|TestChaosShort|TestScale' mpixccl/internal/experiments
# dl's recovery path (watchdog + shrink + rollback) and the persistent hot
# loop are the dl surfaces with cross-layer shared state; the remaining
# Train* exhibits are single-kernel and wall-clock heavy, so the race pass
# is scoped to the elastic + persistent tests.
go test -race -run 'TestTrainElastic|TestTrainPersistent' mpixccl/internal/dl
# The hierarchical collectives recycle opArgs/runCtx through shared pools
# and hand their sends and leader engines to the rank's resident workers,
# shared by one-shot and persistent work; the property tests cover every phase
# interleaving, so they are the ccl surface worth a race pass. TestCompiled
# adds the compiled executor: every plan strategy's move phases run
# through the same pooled pipes. TestRing, TestPersistentRing and
# TestReduceOnReceive cover the pipe steps that write a peer's buffer in
# place (allgather placement) and the staged hop-by-hop fallback of the
# reductions under corruption;
# TestRingScheduleVirtualTime among them pins back-to-back calls on reused
# workers, and TestHelper the one-job-at-a-time latch contract. TestGroup
# and TestSynthesized cover the §3.3 send-recv synthesis, whose group
# sends run on the rank's resident workers. TestReuseAfterAbort checks that
# an op aborted by a network cut returns neither its state nor its pipes to
# the communicator, which recycles both across one-shot ops. TestFusedRing
# holds the owner-computes ring allreduce and tree fan-in (flat tree,
# hierarchical allreduce and reduce-scatter) to the hop-by-hop schedules'
# bytes and times, and runs them in three worlds at once, one of them
# hierarchical (their fusion scratch belongs to one communicator);
# TestByteRegime toggles integrity under queued allreduces and
# hierarchical reduce-scatters, each of which must keep one byte regime. The zero-alloc
# and no-spawn pins (TestPersistentSteadyState*, TestOneShotSteadyState*,
# TestSteadyStateSpawns*) run only un-raced, in the suite above.
go test -race -run 'TestHier|TestForcedFlat|TestCollectivePools|TestCompiled|TestRing|TestPersistentRing|TestReduceOnReceive|TestHelper|TestGroup|TestSynthesized|TestReuseAfterAbort|TestFusedRing|TestByteRegime' mpixccl/internal/ccl
# Fuzz smoke: a few seconds of coverage-guided input per parser, for the
# ring owner pass's one-pass reduce against its pairwise chain, and for the
# tree fan-in's blocked pass against the hop-by-hop binomial reduction, on
# top of the seed corpora the suite above already ran.
go test -run '^$' -fuzz '^FuzzParseTable$' -fuzztime 5s mpixccl/internal/core
go test -run '^$' -fuzz '^FuzzParseKey$' -fuzztime 5s mpixccl/internal/ccl/comp
go test -run '^$' -fuzz '^FuzzParsePartition$' -fuzztime 5s mpixccl/cmd/ombrun
go test -run '^$' -fuzz '^FuzzParseAt$' -fuzztime 5s mpixccl/cmd/xcclbench
go test -run '^$' -fuzz '^FuzzParseScale$' -fuzztime 5s mpixccl/cmd/xcclbench
go test -run '^$' -fuzz '^FuzzReduceChain$' -fuzztime 5s mpixccl/internal/elem
go test -run '^$' -fuzz '^FuzzReduceTree$' -fuzztime 5s mpixccl/internal/elem
# Chaos smoke: a short seeded soak through the CLI entry point proves the
# randomized fault schedules — including two partition schedules in the
# six-run rotation — still terminate with every invariant held, inside
# the per-schedule wall-clock deadline.
go run ./cmd/xcclbench -chaos seed=7,runs=6 >/dev/null
# Sharded-engine smoke: a scaling sweep at 1 and 2 shards keeps the
# -scale ranks= entry point alive; TestScaleDeterministicAcrossShards pins
# its virtual times across shard counts.
go run ./cmd/xcclbench -scale ranks=256,shards=2 >/dev/null
# Compiler smoke: -compile must reach the exhibit pipeline and leave it
# deterministic. The compiled fig5 grid (fig5 and fig6 carry the alltoall
# columns) must be byte-identical across two CLI runs (wall-time footer
# lines excluded) and must differ from the run without the flag. With
# -compile OFF the goldens are already pinned byte-for-byte by
# TestGoldenVirtualTime, so together the proofs bracket the flag.
comp_first=$(go run ./cmd/xcclbench -exp fig5 -compile | grep -v 'wall time')
comp_again=$(go run ./cmd/xcclbench -exp fig5 -compile | grep -v 'wall time')
if [ "$comp_first" != "$comp_again" ]; then
	echo "check.sh: xcclbench -exp fig5 -compile differs between two runs" >&2
	exit 1
fi
comp_off=$(go run ./cmd/xcclbench -exp fig5 | grep -v 'wall time')
if [ "$comp_first" = "$comp_off" ]; then
	echo "check.sh: xcclbench -exp fig5 -compile equals the run without -compile" >&2
	exit 1
fi
# Partition smoke: the quorum/fence/rejoin exhibit regenerates through the
# CLI twice with identical output. With partitions off the other exhibits
# are pinned byte-for-byte against the committed golden by
# TestGoldenVirtualTime in the suite above.
pfirst=$(go run ./cmd/xcclbench -exp partition | grep -v 'wall time')
pagain=$(go run ./cmd/xcclbench -exp partition | grep -v 'wall time')
if [ "$pfirst" != "$pagain" ]; then
	echo "check.sh: xcclbench -exp partition differs between two runs" >&2
	exit 1
fi
echo "check.sh: all clean"
