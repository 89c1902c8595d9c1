//go:build !race

// The race detector instruments allocations, so the zero-alloc pins in
// this file only hold in a normal build; check.sh runs them un-raced.

package ccl

import (
	"runtime"
	"runtime/debug"
	"testing"

	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// The steady-state allocation contract. A persistent wave (Start →
// [Pready…] → Wait) performs ZERO heap allocations on any rank once the
// warm-up waves have built its scratch pipes, fabric routes and waiter-slice
// capacities: the stream work item, completion events, helper latches and
// jobs, partition gate, and inter-node engine are all recycled. A one-shot
// collective reaches the same state for its schedule — segments are views
// by value, and op states and pipes are recycled on the communicator — and
// pays only its enqueue: the stream task, its completion event, the task
// name and the closures that bind the call's arguments. The tests measure
// the global malloc count across whole waves (every rank parked at a
// barrier between reads), with GC disabled so background collection cannot
// perturb the counter.

// measureWaveAllocs runs warm-up and then measured waves of one collective
// on nranks ranks of thetagpu nodes and pins every measured wave's mallocs,
// summed over all ranks, at want. setup builds one rank's wave.
func measureWaveAllocs(t *testing.T, nodes, nranks int, algo Algorithm, want uint64,
	setup func(c *Comm, s *device.Stream) (func(p *sim.Proc) error, error)) {
	t.Helper()
	const warmWaves = 3
	const measured = 8
	k := sim.NewKernel()
	sys, err := topology.Preset(k, "thetagpu", nodes)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(k, sys)
	comms, err := NewComms(fab, sys.Devices()[:nranks], testBackend())
	if err != nil {
		t.Fatal(err)
	}
	bar := sim.NewBarrier(k, nranks)
	var mallocs [warmWaves + measured]uint64
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// The kernel runs one rank at a time whatever GOMAXPROCS is, but with
	// several Ps the hand-offs between rank goroutines migrate across them
	// and the runtime occasionally allocates a fresh wait record (sudog)
	// for a P whose cache is empty: an allocation of the Go scheduler, not
	// of the schedule. One P keeps the count about the schedule alone.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	err = Run(comms, func(c *Comm, s *device.Stream, p *sim.Proc) {
		c.SetAlgorithm(algo, 0)
		wave, err := setup(c, s)
		if err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		bar.Wait(p)
		for w := 0; w < warmWaves+measured; w++ {
			if err := wave(p); err != nil {
				t.Errorf("wave %d: %v", w, err)
				return
			}
			bar.Wait(p)
			if c.Rank() == 0 {
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				mallocs[w] = ms.Mallocs
			}
			bar.Wait(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := warmWaves; w < warmWaves+measured; w++ {
		if d := mallocs[w] - mallocs[w-1]; d != want {
			t.Errorf("steady-state wave %d allocated %d objects across %d ranks; want %d",
				w, d, nranks, want)
		}
	}
}

// measurePersistentWaveAllocs pins a persistent allreduce handle's waves
// at zero allocations.
func measurePersistentWaveAllocs(t *testing.T, nodes, nranks, count, parts int, algo Algorithm) {
	t.Helper()
	measureWaveAllocs(t, nodes, nranks, algo, 0, func(c *Comm, s *device.Stream) (func(p *sim.Proc) error, error) {
		send := c.Device().MustMalloc(int64(count) * 4)
		recv := c.Device().MustMalloc(int64(count) * 4)
		pc, err := c.AllReduceInitPartitioned(send, recv, count, Float32, Sum, parts, s)
		if err != nil {
			return nil, err
		}
		return pc.Do, nil
	})
}

func TestPersistentSteadyStateAllocFreeTree(t *testing.T) {
	measurePersistentWaveAllocs(t, 1, 4, 1024, 1, AlgoTree)
}

func TestPersistentSteadyStateAllocFreeRing(t *testing.T) {
	measurePersistentWaveAllocs(t, 1, 4, 256<<10/4, 1, AlgoFlatRing)
}

func TestPersistentSteadyStateAllocFreeHier(t *testing.T) {
	measurePersistentWaveAllocs(t, 2, 16, 256<<10/4, 1, AlgoHierarchical)
}

func TestPersistentSteadyStateAllocFreePartitionedHier(t *testing.T) {
	measurePersistentWaveAllocs(t, 2, 16, 256<<10/4, 8, AlgoHierarchical)
}

func TestPersistentSteadyStateAllocFreePartitionedTree(t *testing.T) {
	measurePersistentWaveAllocs(t, 1, 4, 1024, 4, AlgoTree)
}

// oneShotWave is a rank's one-shot wave: enqueue the call, synchronize the
// stream, collect the verdict.
func oneShotWave(c *Comm, s *device.Stream, call func() error) func(p *sim.Proc) error {
	return func(p *sim.Proc) error {
		if err := call(); err != nil {
			return err
		}
		s.Synchronize(p)
		return c.TakeAsyncErr()
	}
}

// TestOneShotSteadyStateAllocs pins a one-shot collective's steady-state
// waves at their enqueue allocations: per rank, the stream task and its
// completion event and the closures binding the call (the wave body, the
// schedule, and for the compiled plan the plan executor), five objects,
// and for Reduce and reduce-scatter a sixth, the reduction operator their
// wave body captures. The schedule itself —
// segments, pipes, op state, helper jobs, the hierarchical engine —
// allocates nothing but the scratch buffer header of a reduce-scatter's
// ranks and of a Reduce's inner ranks (rank 1 of four at root 3).
func TestOneShotSteadyStateAllocs(t *testing.T) {
	// oneShot builds a rank's wave of the call that bind returns over
	// count elements (a gather's or scatter's block).
	type binder func(c *Comm, count int, s *device.Stream) func() error
	oneShot := func(count int, bind binder) func(c *Comm, s *device.Stream) (func(p *sim.Proc) error, error) {
		return func(c *Comm, s *device.Stream) (func(p *sim.Proc) error, error) {
			return oneShotWave(c, s, bind(c, count, s)), nil
		}
	}
	floats := func(c *Comm, n int) *device.Buffer { return c.Device().MustMalloc(int64(n) * 4) }
	allreduce := func(c *Comm, count int, s *device.Stream) func() error {
		send, recv := floats(c, count), floats(c, count)
		return func() error { return c.AllReduce(send, recv, count, Float32, Sum, s) }
	}
	reduce := func(c *Comm, count int, s *device.Stream) func() error {
		send, recv := floats(c, count), floats(c, count)
		return func() error { return c.Reduce(send, recv, count, Float32, Sum, 3, s) }
	}
	broadcast := func(c *Comm, count int, s *device.Stream) func() error {
		send, recv := floats(c, count), floats(c, count)
		return func() error { return c.Broadcast(send, recv, count, Float32, 3, s) }
	}
	allgather := func(c *Comm, count int, s *device.Stream) func() error {
		send, recv := floats(c, count), floats(c, count*c.Size())
		return func() error { return c.AllGather(send, recv, count, Float32, s) }
	}
	reducescatter := func(c *Comm, count int, s *device.Stream) func() error {
		send, recv := floats(c, count*c.Size()), floats(c, count)
		return func() error { return c.ReduceScatter(send, recv, count, Float32, Sum, s) }
	}
	for _, tc := range []struct {
		name          string
		nodes, nranks int
		algo          Algorithm
		perWave       uint64 // summed over ranks
		setup         func(c *Comm, s *device.Stream) (func(p *sim.Proc) error, error)
	}{
		{"tree", 1, 4, AlgoTree, 20, oneShot(1024, allreduce)},
		{"flat-ring", 1, 4, AlgoFlatRing, 20, oneShot(256<<10/4, allreduce)},
		{"hierarchical", 2, 16, AlgoHierarchical, 80, oneShot(256<<10/4, allreduce)},
		{"reduce", 1, 4, AlgoAuto, 25, oneShot(1024, reduce)},
		{"broadcast", 1, 4, AlgoAuto, 20, oneShot(1024, broadcast)},
		{"flat-allgather", 1, 4, AlgoAuto, 20, oneShot(16<<10/4, allgather)},
		{"hierarchical-allgather", 2, 16, AlgoHierarchical, 80, oneShot(16<<10/4, allgather)},
		{"flat-reducescatter", 1, 4, AlgoAuto, 28, oneShot(16<<10/4, reducescatter)},
		{"hierarchical-reducescatter", 2, 16, AlgoHierarchical, 112, oneShot(16<<10/4, reducescatter)},
		{"compiled-alltoall", 1, 4, AlgoAuto, 20, func(c *Comm, s *device.Stream) (func(p *sim.Proc) error, error) {
			const blk = 4 << 10 // elements per block
			send := c.Device().MustMalloc(4 * blk * 4)
			recv := c.Device().MustMalloc(4 * blk * 4)
			return oneShotWave(c, s, func() error {
				return c.Alltoall(send, recv, blk, Float32, "auto", s)
			}), nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			measureWaveAllocs(t, tc.nodes, tc.nranks, tc.algo, tc.perWave, tc.setup)
		})
	}
}
