package core

import (
	"testing"

	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
)

// TestIallreduceSpawnsNoProcs pins the xCCL layer's nonblocking collectives
// to the ranks' resident MPI progress processes: under hybrid dispatch,
// after a warm-up wave (which also creates the CCL communicator), waves of
// a small MPI-path and a large CCL-path Iallreduce in flight together spawn
// no process. Spawns are counted as the pid distance between sentinel
// processes spawned after every wave.
func TestIallreduceSpawnsNoProcs(t *testing.T) {
	const (
		n     = 16
		large = 1 << 20 // 4 MiB of Float32: the CCL path
		waves = 4       // the first is warm-up
	)
	rt := newRuntime(t, "thetagpu", n, Options{Backend: Auto, Mode: Hybrid})
	k := rt.Job().Fabric().Kernel()
	bar := sim.NewBarrier(k, n)
	var pids []int
	err := rt.Run(func(x *Comm) {
		p := x.MPI().Proc()
		dev := x.Device()
		send, recv := dev.MustMalloc(large*4), dev.MustMalloc(large*4)
		smallSend, smallRecv := dev.MustMalloc(64), dev.MustMalloc(64)
		for w := 0; w < waves; w++ {
			r1 := x.Iallreduce(smallSend, smallRecv, 16, mpi.Float32, mpi.OpSum)
			r2 := x.Iallreduce(send, recv, large, mpi.Float32, mpi.OpSum)
			x.Wait(r2)
			x.Wait(r1)
			bar.Wait(p)
			if x.Rank() == 0 {
				pids = append(pids, k.Spawn("sentinel", func(*sim.Proc) {}).ID())
			}
			bar.Wait(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pids); i++ {
		if spawned := pids[i] - pids[i-1] - 1; spawned != 0 {
			t.Errorf("wave %d spawned %d processes; want 0", i, spawned)
		}
	}
}
