//go:build !race

// The race detector instruments allocations, so the zero-alloc pin in this
// file only holds in a normal build.

package core

import (
	"testing"

	"mpixccl/internal/ccl"
	"mpixccl/internal/mpi"
)

// decide runs on every collective call, so the dispatch checks must not
// allocate: the backend personality (datatype and op maps included) is
// resolved once by NewRuntime, not rebuilt per call.
func TestDecideAllocs(t *testing.T) {
	for _, mode := range []Mode{Hybrid, PureCCL} {
		rt := newRuntime(t, "thetagpu", 1, Options{Backend: Auto, Mode: mode})
		err := rt.Run(func(x *Comm) {
			const count = 1 << 20 // 4 MiB: the CCL side of every tuning table
			send := x.Device().MustMalloc(count * 4)
			recv := x.Device().MustMalloc(count * 4)
			op := mpi.OpSum
			if d := x.decide(OpAllreduce, count*4, mpi.Float32, &op, send, recv); !d.useCCL {
				t.Fatalf("%s: 4 MiB float32 sum allreduce did not choose the CCL path", mode)
			}
			allocs := testing.AllocsPerRun(100, func() {
				x.decide(OpAllreduce, count*4, mpi.Float32, &op, send, recv)
			})
			if allocs != 0 {
				t.Errorf("%s: decide allocates %.2f objects per call; want 0", mode, allocs)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// With neither a registry nor a recorder wired, folding an event only
// moves Stats: no kind allocates.
func TestEmitWithoutSinksAllocs(t *testing.T) {
	rt := newRuntime(t, "thetagpu", 1, Options{Backend: Auto, Mode: PureCCL})
	transient := &ccl.Error{Backend: "nccl", Result: ccl.ErrRemote}
	for _, ev := range []event{
		{kind: evOp, op: OpAllreduce, path: PathCCL, bytes: 1 << 20},
		{kind: evFallback, op: OpAllreduce, cause: causeBreakerOpen},
		{kind: evTuning, op: OpAllreduce, path: PathCCL, hit: true, algo: ccl.AlgoHierarchical},
		{kind: evRetry, op: OpAllreduce, err: transient},
		{kind: evBreaker, op: OpAllreduce, to: breakerHalfOpen},
		{kind: evVerdict, op: OpAllreduce, dead: true, self: true},
		{kind: evRevoke},
		{kind: evRetire, op: "shrink", members: 3, cut: 1},
		{kind: evFence, peer: 2},
		{kind: evHeartbeat},
		{kind: evSuspicion, outcome: suspicionRetracted},
	} {
		if allocs := testing.AllocsPerRun(100, func() { rt.emit(ev) }); allocs != 0 {
			t.Errorf("event kind %d allocates %.2f objects per emit; want 0", ev.kind, allocs)
		}
	}
}
