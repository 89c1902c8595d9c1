package ccl

import (
	"testing"
	"time"

	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// These tests pin the recycling contract of the collective enqueue hot
// path (see the sim package's alloc guards for the scheduler side): the
// opArgs and runCtx free lists must absorb the per-wave objects, so a
// steady stream of collectives does not grow the allocation rate. A
// regression here does not break correctness, but it puts one allocation
// per rank per collective back on the simulator's wall-clock profile.
// (Asynchronous sends use no runCtx from the pool: each stream's resident
// helper keeps its own.)

// testBackend is a minimal NCCL-like personality for in-package tests.
func testBackend() Config {
	return Config{
		Name:  "testccl",
		Kinds: []device.Kind{device.NvidiaGPU},
		Datatypes: map[Datatype]bool{
			Int8: true, Int32: true, Int64: true,
			Float16: true, Float32: true, Float64: true,
		},
		Ops:              map[RedOp]bool{Sum: true, Prod: true, Max: true, Min: true},
		Launch:           20 * time.Microsecond,
		StepCost:         1200 * time.Nanosecond,
		Channels:         12,
		ChunkBytes:       512 << 10,
		TreeThreshold:    256 << 10,
		InterNodePenalty: 1.0,
	}
}

// TestPoolPrimitivesAllocFree pins the acquire/release cycle itself: once
// the free lists hold an entry, newArgs/getCtx/putCtx must not allocate.
func TestPoolPrimitivesAllocFree(t *testing.T) {
	co := &core{}
	st := &opState{}
	a := co.newArgs(nil, nil, 0, 0)
	*a = opArgs{}
	co.argsFree = append(co.argsFree, a)
	co.putCtx(co.getCtx(st, 0, nil))
	allocs := testing.AllocsPerRun(100, func() {
		a := co.newArgs(nil, nil, 1, 0)
		*a = opArgs{}
		co.argsFree = append(co.argsFree, a)
		co.putCtx(co.getCtx(st, 0, nil))
	})
	if allocs != 0 {
		t.Errorf("pooled opArgs/runCtx cycle allocates %.2f objects per op; want 0", allocs)
	}
}

// TestCollectivePoolsReachSteadyState runs repeated AllReduce waves and
// checks that the shared free lists stop growing after the first wave:
// every wave's opArgs and stream-task runCtxs are recycled rather than
// freshly allocated.
func TestCollectivePoolsReachSteadyState(t *testing.T) {
	const nranks = 4
	const waves = 10
	const count = 4096
	k := sim.NewKernel()
	sys, err := topology.Preset(k, "thetagpu", 1)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(k, sys)
	comms, err := NewComms(fab, sys.Devices()[:nranks], testBackend())
	if err != nil {
		t.Fatal(err)
	}
	co := comms[0].core
	bar := sim.NewBarrier(k, nranks)
	// Pool sizes observed by rank 0 at the wave boundaries (all stream
	// tasks joined, so every recycle for the wave has happened).
	var argsLens, ctxLens [waves]int
	err = Run(comms, func(c *Comm, s *device.Stream, p *sim.Proc) {
		send := c.Device().MustMalloc(count * 4)
		recv := c.Device().MustMalloc(count * 4)
		for w := 0; w < waves; w++ {
			if err := c.AllReduce(send, recv, count, Float32, Sum, s); err != nil {
				t.Errorf("allreduce: %v", err)
				return
			}
			s.Synchronize(p)
			bar.Wait(p)
			if c.Rank() == 0 {
				argsLens[w] = len(co.argsFree)
				ctxLens[w] = len(co.ctxFree)
			}
			bar.Wait(p)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if argsLens[0] < nranks {
		t.Errorf("after one wave the opArgs pool holds %d entries; want >= %d (finish must recycle)",
			argsLens[0], nranks)
	}
	if ctxLens[0] < nranks {
		t.Errorf("after one wave the runCtx pool holds %d entries; want >= %d", ctxLens[0], nranks)
	}
	for w := 1; w < waves; w++ {
		if argsLens[w] > argsLens[0] || ctxLens[w] > ctxLens[0] {
			t.Fatalf("pools keep growing: wave %d args=%d ctx=%d, wave 0 args=%d ctx=%d — "+
				"collectives are allocating instead of recycling",
				w, argsLens[w], ctxLens[w], argsLens[0], ctxLens[0])
		}
	}
}
