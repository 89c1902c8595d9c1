//go:build !race

// The race detector instruments allocations, so the zero-alloc pin in this
// file only holds in a normal build.

package core

import (
	"testing"

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
