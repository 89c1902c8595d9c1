package core

import (
	"testing"

	"mpixccl/internal/fabric"
	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// newRuntime builds a job + runtime on a preset system.
func newRuntime(t *testing.T, system string, nranks int, opts Options) *Runtime {
	t.Helper()
	k := sim.NewKernel()
	perNode := map[string]int{"thetagpu": 8, "mri": 2, "voyager": 8}[system]
	nodes := (nranks + perNode - 1) / perNode
	sys, err := topology.Preset(k, system, nodes)
	if err != nil {
		t.Fatal(err)
	}
	job := mpi.NewJobOnSystem(fabric.New(k, sys), mpi.MVAPICHProfile(), sys, nranks)
	rt, err := NewRuntime(job, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestBackendAutoSelection(t *testing.T) {
	cases := map[string]BackendKind{"thetagpu": NCCL, "mri": RCCL, "voyager": HCCL}
	for system, want := range cases {
		rt := newRuntime(t, system, 2, Options{Backend: Auto, Mode: Hybrid})
		if rt.Backend() != want {
			t.Errorf("%s auto backend = %s, want %s", system, rt.Backend(), want)
		}
	}
}

func TestModeStrings(t *testing.T) {
	if Hybrid.String() != "hybrid-xccl" || PureCCL.String() != "pure-xccl" || PureMPI.String() != "pure-mpi" {
		t.Error("mode names wrong")
	}
}

func TestAllreduceCorrectBothPaths(t *testing.T) {
	// 64 elements (256 B) stays on the MPI path in hybrid mode; 1M elements
	// (4 MB) goes to NCCL. Both must produce identical correct sums.
	for _, count := range []int{64, 1 << 20} {
		rt := newRuntime(t, "thetagpu", 8, Options{Backend: Auto, Mode: Hybrid})
		err := rt.Run(func(x *Comm) {
			send := x.Device().MustMalloc(int64(count) * 4)
			recv := x.Device().MustMalloc(int64(count) * 4)
			for i := 0; i < count; i += 97 {
				send.SetFloat32(i, float32(x.Rank()+1))
			}
			x.Allreduce(send, recv, count, mpi.Float32, mpi.OpSum)
			for i := 0; i < count; i += 97 {
				if recv.Float32(i) != 36 {
					t.Errorf("count=%d rank=%d elem %d = %v, want 36", count, x.Rank(), i, recv.Float32(i))
				}
			}
		})
		if err != nil {
			t.Fatalf("count=%d: %v", count, err)
		}
	}
}

func TestHybridDispatchBySize(t *testing.T) {
	rt := newRuntime(t, "thetagpu", 8, Options{Backend: Auto, Mode: Hybrid})
	err := rt.Run(func(x *Comm) {
		small := x.Device().MustMalloc(1 << 10)
		large := x.Device().MustMalloc(1 << 20)
		x.Allreduce(small, small, 256, mpi.Float32, mpi.OpSum)   // 1 KB -> MPI
		x.Allreduce(large, large, 1<<18, mpi.Float32, mpi.OpSum) // 1 MB -> CCL
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.MPIOps != 8 || st.CCLOps != 8 {
		t.Fatalf("stats = %+v, want 8 MPI ops and 8 CCL ops", st)
	}
}

func TestPureModesForcePath(t *testing.T) {
	for _, mode := range []Mode{PureMPI, PureCCL} {
		rt := newRuntime(t, "thetagpu", 4, Options{Backend: Auto, Mode: mode})
		err := rt.Run(func(x *Comm) {
			buf := x.Device().MustMalloc(64)
			out := x.Device().MustMalloc(64)
			buf.FillFloat32(1)
			x.Allreduce(buf, out, 16, mpi.Float32, mpi.OpSum)
			if out.Float32(5) != 4 {
				t.Errorf("mode %v sum = %v", mode, out.Float32(5))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		st := rt.Stats()
		if mode == PureMPI && (st.CCLOps != 0 || st.MPIOps != 4) {
			t.Errorf("PureMPI stats = %+v", st)
		}
		if mode == PureCCL && (st.MPIOps != 0 || st.CCLOps != 4) {
			t.Errorf("PureCCL stats = %+v", st)
		}
	}
}

func TestDoubleComplexFallsBackToMPI(t *testing.T) {
	rt := newRuntime(t, "thetagpu", 4, Options{Backend: Auto, Mode: PureCCL})
	err := rt.Run(func(x *Comm) {
		send := x.Device().MustMalloc(32)
		recv := x.Device().MustMalloc(32)
		send.SetFloat64(0, float64(x.Rank()))
		send.SetFloat64(1, 1)
		x.Allreduce(send, recv, 2, mpi.DoubleComplex, mpi.OpSum)
		if recv.Float64(0) != 6 || recv.Float64(1) != 4 {
			t.Errorf("complex sum = %v+%vi", recv.Float64(0), recv.Float64(1))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Fallbacks.Datatype != 4 {
		t.Errorf("datatype fallbacks = %d, want 4", st.Fallbacks.Datatype)
	}
	if st.CCLOps != 0 {
		t.Errorf("complex op reached CCL: %+v", st)
	}
}

func TestHCCLFloat64FallsBackFloat32Dispatches(t *testing.T) {
	rt := newRuntime(t, "voyager", 8, Options{Backend: Auto, Mode: PureCCL})
	err := rt.Run(func(x *Comm) {
		f64 := x.Device().MustMalloc(8 << 20)
		out64 := x.Device().MustMalloc(8 << 20)
		x.Allreduce(f64, out64, 1<<20, mpi.Float64, mpi.OpSum) // HCCL: unsupported -> MPI
		f32 := x.Device().MustMalloc(4 << 20)
		out32 := x.Device().MustMalloc(4 << 20)
		x.Allreduce(f32, out32, 1<<20, mpi.Float32, mpi.OpSum) // supported -> HCCL
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Fallbacks.Datatype != 8 {
		t.Errorf("datatype fallbacks = %d, want 8", st.Fallbacks.Datatype)
	}
	if st.CCLOps != 8 {
		t.Errorf("CCL ops = %d, want 8", st.CCLOps)
	}
}

func TestHostBufferFallsBack(t *testing.T) {
	rt := newRuntime(t, "thetagpu", 2, Options{Backend: Auto, Mode: PureCCL})
	err := rt.Job().Run(func(c *mpi.Comm) {
		x := rt.Wrap(c)
		host := c.Job().Fabric().System().Nodes[c.Device().Node].Host
		send := host.MustMalloc(1 << 20)
		recv := host.MustMalloc(1 << 20)
		x.Allreduce(send, recv, 1<<18, mpi.Float32, mpi.OpSum)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats().Fallbacks.HostBuffer != 2 {
		t.Errorf("host-buffer fallbacks = %d, want 2", rt.Stats().Fallbacks.HostBuffer)
	}
}

func TestCommCacheReused(t *testing.T) {
	rt := newRuntime(t, "thetagpu", 4, Options{Backend: Auto, Mode: PureCCL})
	err := rt.Run(func(x *Comm) {
		buf := x.Device().MustMalloc(4 << 20)
		out := x.Device().MustMalloc(4 << 20)
		for i := 0; i < 3; i++ {
			x.Allreduce(buf, out, 1<<20, mpi.Float32, mpi.OpSum)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.cache) != 1 {
		t.Errorf("comm cache has %d entries, want 1 (reuse)", len(rt.cache))
	}
}

func TestAllCollectivesCorrectOnCCLPath(t *testing.T) {
	const n = 8
	const count = 1 << 17 // 512 KB of float32: CCL path everywhere
	rt := newRuntime(t, "thetagpu", n, Options{Backend: Auto, Mode: PureCCL})
	err := rt.Run(func(x *Comm) {
		r := x.Rank()
		dev := x.Device()
		send := dev.MustMalloc(count * 4)
		recv := dev.MustMalloc(count * 4)
		for i := 0; i < count; i += 101 {
			send.SetFloat32(i, float32(r+1))
		}
		// Allreduce
		x.Allreduce(send, recv, count, mpi.Float32, mpi.OpSum)
		if recv.Float32(101) != 36 {
			t.Errorf("allreduce = %v", recv.Float32(101))
		}
		// Bcast
		bc := dev.MustMalloc(count * 4)
		if r == 3 {
			bc.FillFloat32(9)
		}
		x.Bcast(bc, count, mpi.Float32, 3)
		if bc.Float32(7) != 9 {
			t.Errorf("bcast = %v", bc.Float32(7))
		}
		// Reduce
		red := dev.MustMalloc(count * 4)
		x.Reduce(send, red, count, mpi.Float32, mpi.OpSum, 0)
		if r == 0 && red.Float32(101) != 36 {
			t.Errorf("reduce = %v", red.Float32(101))
		}
		// Allgather
		all := dev.MustMalloc(n * count * 4)
		x.Allgather(send, count, mpi.Float32, all)
		for blk := 0; blk < n; blk++ {
			if got := all.Float32(blk*count + 101); got != float32(blk+1) {
				t.Errorf("allgather block %d = %v", blk, got)
			}
		}
		// ReduceScatterBlock over the gathered data
		rsOut := dev.MustMalloc(count / 2 * 4)
		rsIn := dev.MustMalloc(int64(n) * (count / 2) * 4)
		rsIn.FillFloat32(2)
		x.ReduceScatterBlock(rsIn, rsOut, count/2, mpi.Float32, mpi.OpSum)
		if rsOut.Float32(3) != float32(2*n) {
			t.Errorf("reducescatter = %v", rsOut.Float32(3))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallGroupPathCorrect(t *testing.T) {
	const n = 8
	const count = 4096 // 16 KB blocks: above the 4 KB alltoall crossover
	rt := newRuntime(t, "thetagpu", n, Options{Backend: Auto, Mode: Hybrid})
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
		t.Errorf("alltoall did not take CCL path: %+v", rt.Stats())
	}
}

func TestAlltoallvListing1OnCCL(t *testing.T) {
	const n = 4
	rt := newRuntime(t, "thetagpu", n, Options{Backend: Auto, Mode: PureCCL})
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
		t.Errorf("alltoallv did not take CCL path: %+v", rt.Stats())
	}
}

// TestAlltoallvMixedBandsAgree: MPI lets alltoallv counts differ per rank,
// so ranks' largest blocks may fall in different tuning bands (8 KiB and 1
// KiB here, on either side of the default table's alltoallv crossover).
// The ranks must still take one path per call, with the breaker on and
// off, and every received byte must be right.
func TestAlltoallvMixedBandsAgree(t *testing.T) {
	const n = 2
	block := [n]int{2048, 256} // float32 elements rank r sends to each peer
	for _, tc := range []struct {
		name   string
		policy *Resilience
	}{{"breaker", nil}, {"no-breaker", &Resilience{}}} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRuntime(t, "thetagpu", n, Options{Backend: Auto, Mode: Hybrid, Resilience: tc.policy})
			err := rt.Run(func(x *Comm) {
				r := x.Rank()
				sendCounts, sdispls := make([]int, n), make([]int, n)
				recvCounts, rdispls := make([]int, n), make([]int, n)
				for p := 0; p < n; p++ {
					sendCounts[p], sdispls[p] = block[r], p*block[r]
					recvCounts[p] = block[p]
					if p > 0 {
						rdispls[p] = rdispls[p-1] + block[p-1]
					}
				}
				send := x.Device().MustMalloc(int64(n*block[r]) * 4)
				recv := x.Device().MustMalloc(int64(rdispls[n-1]+block[n-1]) * 4)
				val := func(from, to, i int) float32 { return float32(from*100000 + to*10000 + i) }
				for p := 0; p < n; p++ {
					for i := 0; i < block[r]; i++ {
						send.SetFloat32(sdispls[p]+i, val(r, p, i))
					}
				}
				x.Alltoallv(send, sendCounts, sdispls, mpi.Float32, recv, recvCounts, rdispls)
				for p := 0; p < n; p++ {
					for i := 0; i < block[p]; i++ {
						if got := recv.Float32(rdispls[p] + i); got != val(p, r, i) {
							t.Fatalf("rank %d element %d from %d = %v, want %v", r, i, p, got, val(p, r, i))
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGatherScatterOnCCLPath(t *testing.T) {
	const n = 8
	const count = 1 << 16 // 256 KB: above gather/scatter crossover
	rt := newRuntime(t, "thetagpu", n, Options{Backend: Auto, Mode: Hybrid})
	err := rt.Run(func(x *Comm) {
		dev := x.Device()
		mine := dev.MustMalloc(count * 4)
		mine.FillFloat32(float32(x.Rank()))
		gathered := dev.MustMalloc(n * count * 4)
		x.Gather(mine, count, mpi.Float32, gathered, 0)
		if x.Rank() == 0 {
			for r := 0; r < n; r++ {
				if gathered.Float32(r*count+5) != float32(r) {
					t.Errorf("gather block %d wrong", r)
				}
			}
		}
		back := dev.MustMalloc(count * 4)
		x.Scatter(gathered, count, mpi.Float32, back, 0)
		if back.Float32(9) != float32(x.Rank()) {
			t.Errorf("scatter rank %d = %v", x.Rank(), back.Float32(9))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.CCLOps != 2*n {
		t.Errorf("gather/scatter CCL ops = %d, want %d", st.CCLOps, 2*n)
	}
}

func TestNonblockingCollectives(t *testing.T) {
	const n = 4
	rt := newRuntime(t, "thetagpu", n, Options{Backend: Auto, Mode: Hybrid})
	err := rt.Run(func(x *Comm) {
		dev := x.Device()
		a := dev.MustMalloc(1 << 20)
		b := dev.MustMalloc(1 << 20)
		a.FillFloat32(1)
		req1 := x.Iallreduce(a, b, 1<<18, mpi.Float32, mpi.OpSum)
		c := dev.MustMalloc(4096)
		if x.Rank() == 0 {
			c.FillFloat32(5)
		}
		req2 := x.Ibcast(c, 1024, mpi.Float32, 0)
		x.Wait(req1)
		x.Wait(req2)
		if b.Float32(10) != float32(n) {
			t.Errorf("iallreduce = %v", b.Float32(10))
		}
		if c.Float32(10) != 5 {
			t.Errorf("ibcast = %v", c.Float32(10))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitCommunicatorGetsOwnCCLComm(t *testing.T) {
	const n = 8
	rt := newRuntime(t, "thetagpu", n, Options{Backend: Auto, Mode: PureCCL})
	err := rt.Run(func(x *Comm) {
		members := []int{0, 2, 4, 6}
		if x.Rank()%2 == 1 {
			members = []int{1, 3, 5, 7}
		}
		sub := rt.Wrap(x.MPI().Subset(members))
		buf := sub.Device().MustMalloc(4 << 20)
		out := sub.Device().MustMalloc(4 << 20)
		buf.FillFloat32(1)
		sub.Allreduce(buf, out, 1<<20, mpi.Float32, mpi.OpSum)
		if out.Float32(3) != 4 {
			t.Errorf("sub allreduce = %v, want 4", out.Float32(3))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.cache) != 2 {
		t.Errorf("cache entries = %d, want 2 (one per parity group)", len(rt.cache))
	}
}

func TestBarrierAlwaysMPI(t *testing.T) {
	rt := newRuntime(t, "thetagpu", 4, Options{Backend: Auto, Mode: PureCCL})
	err := rt.Run(func(x *Comm) { x.Barrier() })
	if err != nil {
		t.Fatal(err)
	}
	if rt.Stats().MPIOps != 4 || rt.Stats().CCLOps != 0 {
		t.Errorf("barrier stats = %+v", rt.Stats())
	}
}
