package baseline

import (
	"testing"
	"time"

	"mpixccl/internal/fabric"
	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

func newUCC(t *testing.T, system string, nodes, nranks int) *UCC {
	t.Helper()
	k := sim.NewKernel()
	sys, err := topology.Preset(k, system, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return NewUCC(NewOpenMPIJob(fabric.New(k, sys), sys, nranks))
}

func TestOpenMPIProfileIsHeavier(t *testing.T) {
	ompi := mpi.OpenMPIUCXProfile()
	mv := mpi.MVAPICHProfile()
	if ompi.SendOverhead <= mv.SendOverhead || ompi.CollOverhead <= mv.CollOverhead {
		t.Fatal("Open MPI profile should carry heavier per-message costs")
	}
	if ompi.GPUBWEffIntra >= 1 || ompi.GPUBWEffIntra <= 0 {
		t.Fatal("Open MPI profile should have a degraded intra-node GPU path")
	}
}

func TestUCCAllreduceCorrectBothPaths(t *testing.T) {
	// 1 KB stays on the UCX path; 1 MB offloads to the NCCL TL. Both must
	// produce correct sums.
	for _, count := range []int{256, 1 << 18} {
		u := newUCC(t, "thetagpu", 1, 4)
		err := u.Run(func(x *Comm) {
			send := x.Device().MustMalloc(int64(count) * 4)
			recv := x.Device().MustMalloc(int64(count) * 4)
			send.FillFloat32(float32(x.Rank() + 1))
			x.Allreduce(send, recv, count, mpi.Float32, mpi.OpSum)
			for _, i := range []int{0, count - 1} {
				if recv.Float32(i) != 10 {
					t.Errorf("count=%d elem %d = %v, want 10", count, i, recv.Float32(i))
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestUCCCollectivesSmoke(t *testing.T) {
	u := newUCC(t, "thetagpu", 1, 4)
	err := u.Run(func(x *Comm) {
		buf := x.Device().MustMalloc(1 << 20)
		out := x.Device().MustMalloc(4 << 20)
		x.Bcast(buf, 1<<18, mpi.Float32, 0)
		x.Reduce(buf, out, 1<<18, mpi.Float32, mpi.OpSum, 0)
		x.Allgather(buf, 1<<18, mpi.Float32, out)
		x.Alltoall(out.Slice(0, 4<<20), 1<<18, mpi.Float32, out)
		x.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestUCCAllgatherKeepsFragmentSize pins that an offloaded Allgather, which
// runs as one whole-payload fragment, leaves the UCC's pipeline fragment
// size alone: a later 1 MiB allreduce on the same UCC takes exactly the
// virtual time it takes on a fresh one.
func TestUCCAllgatherKeepsFragmentSize(t *testing.T) {
	const count = 1 << 18 // 1 MiB of float32: offloaded, in 128 KiB fragments
	measure := func(allgatherFirst bool) time.Duration {
		u := newUCC(t, "thetagpu", 1, 4)
		var took time.Duration
		err := u.Run(func(x *Comm) {
			send := x.Device().MustMalloc(count * 4)
			recv := x.Device().MustMalloc(4 * count * 4)
			if allgatherFirst {
				x.Allgather(send, count, mpi.Float32, recv)
			}
			x.Barrier()
			p := x.MPI().Proc()
			start := p.Now()
			x.Allreduce(send, recv.Slice(0, count*4), count, mpi.Float32, mpi.OpSum)
			if x.Rank() == 0 {
				took = p.Now() - start
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return took
	}
	if alone, after := measure(false), measure(true); alone != after {
		t.Fatalf("1 MiB allreduce: %v alone, %v after an Allgather on the same UCC; want equal", alone, after)
	}
}

// The paper's multi-node observation: UCC underperforms plain Open MPI +
// UCX by ~10% across nodes (its CCL TL only runs inside a node).
func TestUCCMultiNodeSlowerThanUCX(t *testing.T) {
	const count = 1 << 18 // 1 MB: offloadable size, but not across nodes
	measure := func(useUCC bool) time.Duration {
		k := sim.NewKernel()
		sys := topology.ThetaGPU(k, 2)
		fab := fabric.New(k, sys)
		job := NewOpenMPIJob(fab, sys, 16)
		var lat time.Duration
		if useUCC {
			u := NewUCC(job)
			if err := u.Run(func(x *Comm) {
				send := x.Device().MustMalloc(count * 4)
				recv := x.Device().MustMalloc(count * 4)
				start := x.MPI().Proc().Now()
				x.Allreduce(send, recv, count, mpi.Float32, mpi.OpSum)
				if d := x.MPI().Proc().Now() - start; d > lat {
					lat = d
				}
			}); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := job.Run(func(c *mpi.Comm) {
				send := c.Device().MustMalloc(count * 4)
				recv := c.Device().MustMalloc(count * 4)
				start := c.Proc().Now()
				c.Allreduce(send, recv, count, mpi.Float32, mpi.OpSum)
				if d := c.Proc().Now() - start; d > lat {
					lat = d
				}
			}); err != nil {
				t.Fatal(err)
			}
		}
		return lat
	}
	ucc := measure(true)
	ucx := measure(false)
	if ucc <= ucx {
		t.Fatalf("multi-node UCC (%v) should not beat UCX (%v)", ucc, ucx)
	}
}

// Single-node, large payloads: the CCL offload must beat the UCX path.
func TestUCCSingleNodeOffloadBeatsUCX(t *testing.T) {
	const count = 1 << 20 // 4 MB
	k := sim.NewKernel()
	sys := topology.ThetaGPU(k, 1)
	fab := fabric.New(k, sys)
	job := NewOpenMPIJob(fab, sys, 8)
	u := NewUCC(job)
	var uccLat, ucxLat time.Duration
	err := u.Run(func(x *Comm) {
		send := x.Device().MustMalloc(count * 4)
		recv := x.Device().MustMalloc(count * 4)
		start := x.MPI().Proc().Now()
		x.Allreduce(send, recv, count, mpi.Float32, mpi.OpSum)
		if d := x.MPI().Proc().Now() - start; d > uccLat {
			uccLat = d
		}
		start = x.MPI().Proc().Now()
		x.MPI().Allreduce(send, recv, count, mpi.Float32, mpi.OpSum)
		if d := x.MPI().Proc().Now() - start; d > ucxLat {
			ucxLat = d
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if uccLat >= ucxLat {
		t.Fatalf("UCC offload (%v) should beat the degraded UCX path (%v) at 4MB", uccLat, ucxLat)
	}
}

func TestUCCHasNoHabanaTL(t *testing.T) {
	u := newUCC(t, "voyager", 1, 4)
	err := u.Run(func(x *Comm) {
		send := x.Device().MustMalloc(1 << 20)
		recv := x.Device().MustMalloc(1 << 20)
		// Offload must silently fail back to the UCX path and still work.
		x.Allreduce(send, recv, 1<<18, mpi.Float32, mpi.OpSum)
	})
	if err != nil {
		t.Fatal(err)
	}
}
