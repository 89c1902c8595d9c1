package ccl_test

import (
	"testing"

	"mpixccl/internal/ccl"
	"mpixccl/internal/ccl/nccl"
	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

// TestSteadyStateSpawnsNoProcs pins the resident-worker design: a rank's
// asynchronous sends, a leader's inter-node engine, a compiled plan's
// lanes and a group's sends run on one pool of processes per communicator
// and rank, so after a warm-up wave no collective spawns a process —
// neither one-shot calls of every schedule with an asynchronous send, nor
// building persistent handles on the warmed streams, nor their waves, nor
// compiled Alltoall, Scatter and Gather, nor a converted MSCCL schedule,
// nor a GroupStart/Send/Recv/GroupEnd alltoall. Spawns are counted as the
// pid distance between sentinel processes spawned at wave boundaries.
// Spawning a put process per ring step instead would read 2(n−1) per rank
// for each ring allreduce, one per (phase, destination, lane) n−1 per rank
// for each direct alltoall, and one per group send n−1 per rank for each
// group alltoall.
func TestSteadyStateSpawnsNoProcs(t *testing.T) {
	const (
		n     = 16 // two 8-GPU nodes: the hierarchical schedules engage
		count = 64 << 10
		waves = 4 // the first is warm-up
	)
	h := newHarness(t, "thetagpu", n, nccl.New)
	// Auto-selected allreduces below run the converted MSCCL schedule.
	if err := h.comms[0].RegisterAlgo(ccl.AllPairsAllReduce(n, 0, 0)); err != nil {
		t.Fatal(err)
	}
	bar := sim.NewBarrier(h.k, n)
	var pids []int
	mark := func(r int, p *sim.Proc) {
		bar.Wait(p)
		if r == 0 {
			pids = append(pids, h.k.Spawn("sentinel", func(*sim.Proc) {}).ID())
		}
		bar.Wait(p)
	}
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		dev := c.Device()
		buf := dev.MustMalloc(count * 4)
		all := dev.MustMalloc(n * count * 4)
		for _, algo := range []ccl.Algorithm{ccl.AlgoFlatRing, ccl.AlgoHierarchical} {
			c.SetAlgorithm(algo, 64<<10) // four hierarchical chunks
			for w := 0; w < waves; w++ {
				for _, err := range []error{
					c.AllReduce(buf, buf, count, ccl.Float32, ccl.Sum, s),
					c.AllGather(buf.Slice(0, count/n*4), all, count/n, ccl.Float32, s),
					c.ReduceScatter(all, buf, count, ccl.Float32, ccl.Sum, s),
				} {
					if err != nil {
						t.Error(err)
					}
				}
				s.Synchronize(p)
				mark(r, p)
			}
		}
		// Persistent handles on the warmed streams: Init and waves alike.
		var handles []*ccl.PersistentColl
		for _, algo := range []ccl.Algorithm{ccl.AlgoFlatRing, ccl.AlgoHierarchical} {
			c.SetAlgorithm(algo, 64<<10)
			ar, err := c.AllReduceInitPartitioned(buf, buf, count, ccl.Float32, ccl.Sum, 4, s)
			if err != nil {
				t.Error(err)
				return
			}
			handles = append(handles, ar)
		}
		mark(r, p)
		for w := 0; w < 2; w++ {
			for _, pc := range handles {
				if err := pc.Do(p); err != nil {
					t.Error(err)
				}
			}
			mark(r, p)
		}
		// Compiled plans and the MSCCL schedule, on the rank's workers.
		c.SetAlgorithm(ccl.AlgoAuto, 0)
		const blk = 4 << 10 // elements per block
		send, recv := dev.MustMalloc(n*blk*4), dev.MustMalloc(n*blk*4)
		for w := 0; w < waves; w++ {
			for _, err := range []error{
				c.Alltoall(send, recv, blk, ccl.Float32, "auto", s),
				c.Scatter(send, recv.Slice(0, blk*4), blk, ccl.Float32, 0, "auto", s),
				c.Gather(send.Slice(0, blk*4), recv, blk, ccl.Float32, n-1, "auto", s),
				c.AllReduce(buf, buf, count, ccl.Float32, ccl.Sum, s),
			} {
				if err != nil {
					t.Error(err)
				}
			}
			s.Synchronize(p)
			mark(r, p)
		}
		// The send-recv alltoall of §3.3 (Listing 1): one group of n−1
		// sends and receives per rank, its sends on the rank's workers.
		for w := 0; w < waves; w++ {
			if err := c.GroupStart(); err != nil {
				t.Error(err)
			}
			for peer := 0; peer < n; peer++ {
				if peer == r {
					continue
				}
				if err := c.Send(send.Slice(int64(peer)*blk*4, blk*4), blk, ccl.Float32, peer, s); err != nil {
					t.Error(err)
				}
				if err := c.Recv(recv.Slice(int64(peer)*blk*4, blk*4), blk, ccl.Float32, peer, s); err != nil {
					t.Error(err)
				}
			}
			if err := c.GroupEnd(); err != nil {
				t.Error(err)
			}
			s.Synchronize(p)
			mark(r, p)
		}
	})
	// pids[0] closes the flat warm-up wave, pids[waves] the hierarchical
	// one, pids[2*waves+3] the compiled one and pids[3*waves+3] the group
	// one.
	if want := 4*waves + 3; len(pids) != want {
		t.Fatalf("%d wave marks, want %d", len(pids), want)
	}
	for i := 1; i < len(pids); i++ {
		if i == waves || i == 2*waves+3 || i == 3*waves+3 {
			continue
		}
		if spawned := pids[i] - pids[i-1] - 1; spawned != 0 {
			t.Errorf("interval %d after warm-up spawned %d processes; want 0", i, spawned)
		}
	}
}
