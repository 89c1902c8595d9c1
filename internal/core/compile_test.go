package core

import (
	"testing"

	"mpixccl/internal/ccl"
	"mpixccl/internal/mpi"
)

// The compiled-executor dispatch path (Options.Compile / table v3 plans):
// the synthesized collectives must produce the same bytes whether they run
// through the group send-recv loop or a compiled plan.

func TestCompileDispatchAlltoallCorrect(t *testing.T) {
	const n = 16 // 2 ThetaGPU nodes: the compiled search has real choices
	const count = 4096
	rt := newRuntime(t, "thetagpu", n, Options{Backend: Auto, Mode: Hybrid, Compile: true})
	err := rt.Run(func(x *Comm) {
		dev := x.Device()
		send := dev.MustMalloc(n * count * 4)
		recv := dev.MustMalloc(n * count * 4)
		for peer := 0; peer < n; peer++ {
			for i := 0; i < count; i += 61 {
				send.SetFloat32(peer*count+i, float32(x.Rank()*100+peer))
			}
		}
		x.Alltoall(send, count, mpi.Float32, recv)
		for peer := 0; peer < n; peer++ {
			if got := recv.Float32(peer*count + 61); got != float32(peer*100+x.Rank()) {
				t.Errorf("rank %d block %d = %v", x.Rank(), peer, got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats().CCLOps != n {
		t.Errorf("compiled alltoall did not take CCL path: %+v", rt.Stats())
	}
}

func TestCompileDispatchRootOpsCorrect(t *testing.T) {
	const n = 12 // uneven node split: 8 + 4
	const count = 1 << 16
	rt := newRuntime(t, "thetagpu", n, Options{Backend: Auto, Mode: Hybrid, Compile: true})
	err := rt.Run(func(x *Comm) {
		dev := x.Device()
		mine := dev.MustMalloc(count * 4)
		mine.FillFloat32(float32(x.Rank()))
		full := dev.MustMalloc(n * count * 4)
		x.Gather(mine, count, mpi.Float32, full, 3)
		if x.Rank() == 3 {
			for r := 0; r < n; r++ {
				if full.Float32(r*count+5) != float32(r) {
					t.Errorf("gather block %d wrong", r)
				}
			}
		}
		back := dev.MustMalloc(count * 4)
		x.Scatter(full, count, mpi.Float32, back, 3)
		if x.Rank() == 3 {
			if back.Float32(9) != float32(x.Rank()) {
				t.Errorf("scatter rank %d = %v", x.Rank(), back.Float32(9))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCompileDispatchAlltoallvCorrect(t *testing.T) {
	const n = 8
	rt := newRuntime(t, "thetagpu", n, Options{Backend: Auto, Mode: PureCCL, Compile: true})
	err := rt.Run(func(x *Comm) {
		r := x.Rank()
		sendCounts := make([]int, n)
		sdispls := make([]int, n)
		recvCounts := make([]int, n)
		rdispls := make([]int, n)
		sTotal, rTotal := 0, 0
		for p := 0; p < n; p++ {
			sendCounts[p] = 1000 * (r + p + 1)
			sdispls[p] = sTotal
			sTotal += sendCounts[p]
			recvCounts[p] = 1000 * (p + r + 1)
			rdispls[p] = rTotal
			rTotal += recvCounts[p]
		}
		send := x.Device().MustMalloc(int64(sTotal) * 4)
		recv := x.Device().MustMalloc(int64(rTotal) * 4)
		for p := 0; p < n; p++ {
			for i := 0; i < sendCounts[p]; i += 37 {
				send.SetFloat32(sdispls[p]+i, float32(r*10+p))
			}
		}
		x.Alltoallv(send, sendCounts, sdispls, mpi.Float32, recv, recvCounts, rdispls)
		for p := 0; p < n; p++ {
			if got := recv.Float32(rdispls[p] + 37); got != float32(p*10+r) {
				t.Errorf("rank %d from %d = %v, want %v", r, p, got, p*10+r)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats().CCLOps != n {
		t.Errorf("compiled alltoallv did not take CCL path: %+v", rt.Stats())
	}
}

// A v3 table band naming an explicit plan key forces that strategy even
// with Compile off, and a built-in op's band forces its algorithm family
// through Algo.
func TestTablePlanForcesStrategy(t *testing.T) {
	const n = 8
	const count = 4096
	tab := DefaultTableFor("ThetaGPU", NCCL, false)
	tab.Set(OpAlltoall, []Threshold{{MaxBytes: 0, Path: PathCCL, Plan: "direct:chunk=4096"}})
	tab.Set(OpAllreduce, []Threshold{{MaxBytes: 0, Path: PathCCL, Algo: ccl.AlgoHierarchical}})
	rt := newRuntime(t, "thetagpu", n, Options{Backend: Auto, Mode: Hybrid, Table: tab})
	err := rt.Run(func(x *Comm) {
		dev := x.Device()
		send := dev.MustMalloc(n * count * 4)
		recv := dev.MustMalloc(n * count * 4)
		for peer := 0; peer < n; peer++ {
			send.SetFloat32(peer*count, float32(x.Rank()*100+peer))
		}
		x.Alltoall(send, count, mpi.Float32, recv)
		for peer := 0; peer < n; peer++ {
			if got := recv.Float32(peer * count); got != float32(peer*100+x.Rank()) {
				t.Errorf("rank %d block %d = %v", x.Rank(), peer, got)
			}
		}
		sum := dev.MustMalloc(256 * 4)
		sum.FillFloat32(1)
		x.Allreduce(sum, sum, 256, mpi.Float32, mpi.OpSum)
		if got := sum.Float32(7); got != float32(n) {
			t.Errorf("allreduce under hierarchical band = %v, want %d", got, n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats().CCLOps != 2*n {
		t.Errorf("planned ops did not take CCL path: %+v", rt.Stats())
	}
}

// With Compile off and no table plans, decide must leave the plan empty —
// the invariant behind the goldens staying byte-identical.
func TestCompileOffLeavesPlanEmpty(t *testing.T) {
	const n = 4
	rt := newRuntime(t, "thetagpu", n, Options{Backend: Auto, Mode: Hybrid})
	err := rt.Run(func(x *Comm) {
		for _, op := range []OpKind{OpAlltoall, OpAlltoallv, OpGather, OpScatter} {
			buf := x.Device().MustMalloc(1 << 20)
			d := x.decide(op, 1<<20, mpi.Float32, nil, buf)
			if d.plan != "" {
				t.Errorf("%s: plan = %q with compile off", op, d.plan)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
