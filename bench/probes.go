package main

import (
	"fmt"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/core"
	"mpixccl/internal/elem"
	"mpixccl/internal/fabric"
	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// Probes time single public functions in isolation, so a per-layer change
// shows up as a number of its own. Each probe runs probeBatches batches of
// a fixed repetition count and reports the median batch.
const probeBatches = 5

type probe struct {
	name, unit string
	reps       int
	// batch runs reps repetitions and returns the time they took.
	batch func(reps int) (time.Duration, error)
	// scale turns (batch time, reps) into the reported value.
	scale func(d time.Duration, reps int) float64
}

func perRep(unit time.Duration) func(time.Duration, int) float64 {
	return func(d time.Duration, reps int) float64 { return float64(d) / float64(reps) / float64(unit) }
}

const probeBytes = 4 << 20

var probes = []probe{
	{"sim.handoff_ns", "ns", 20000, probeHandoff, perRep(time.Nanosecond)},
	{"sim.sleep_ns", "ns", 20000, probeSleep, perRep(time.Nanosecond)},
	{"elem.reduce_gbs", "GB/s", 20, probeReduce, func(d time.Duration, reps int) float64 {
		return float64(probeBytes) * float64(reps) / d.Seconds() / 1e9
	}},
	{"fabric.transfer_us", "us", 20, probeTransfer, perRep(time.Microsecond)},
	{"comp.search_ms", "ms", 3, probeSearch, perRep(time.Millisecond)},
	{"ccl.allreduce_4mb_ms", "ms", 5, probeCCLAllreduce, perRep(time.Millisecond)},
	{"mpi.allreduce_8b_us", "us", 200, probeMPIAllreduce, perRep(time.Microsecond)},
}

// runProbes returns every probe's median value by name.
func runProbes() (map[string]float64, error) {
	out := map[string]float64{}
	for _, pr := range probes {
		vals := make([]float64, 0, probeBatches)
		for i := 0; i < probeBatches; i++ {
			d, err := pr.batch(pr.reps)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", pr.name, err)
			}
			vals = append(vals, pr.scale(d, pr.reps))
		}
		out[pr.name] = median(vals)
	}
	return out, nil
}

// timeRun times a kernel's Run.
func timeRun(k *sim.Kernel) (time.Duration, error) {
	t0 := time.Now()
	err := k.Run()
	return time.Since(t0), err
}

// probeHandoff ping-pongs values over a rendezvous sim.Chan: every message
// is one hand-off from the sender's goroutine to the receiver's.
func probeHandoff(reps int) (time.Duration, error) {
	k := sim.NewKernel()
	ch := sim.NewChan[int](k, 0)
	k.Spawn("ping", func(p *sim.Proc) {
		for i := 0; i < reps; i++ {
			ch.Send(p, i)
		}
	})
	k.Spawn("pong", func(p *sim.Proc) {
		for i := 0; i < reps; i++ {
			ch.Recv(p)
		}
	})
	return timeRun(k)
}

// probeSleep is one process advancing the clock: schedule, wake, resume.
func probeSleep(reps int) (time.Duration, error) {
	k := sim.NewKernel()
	k.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < reps; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	return timeRun(k)
}

// probeReduce is a float32 sum of two 4 MiB buffers.
func probeReduce(reps int) (time.Duration, error) {
	dst, src := make([]byte, probeBytes), make([]byte, probeBytes)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		elem.Reduce(elem.OpSum, elem.F32, dst, src, probeBytes/4)
	}
	return time.Since(t0), nil
}

// probeTransfer moves 4 MiB between GPUs on different thetagpu nodes.
func probeTransfer(reps int) (time.Duration, error) {
	k := sim.NewKernel()
	sys, err := topology.Preset(k, "thetagpu", 2)
	if err != nil {
		return 0, err
	}
	fab := fabric.New(k, sys)
	src := sys.Device(0).MustMalloc(probeBytes)
	dst := sys.Device(sys.DevicesPerNode()).MustMalloc(probeBytes)
	k.Spawn("xfer", func(p *sim.Proc) {
		for i := 0; i < reps; i++ {
			fab.Transfer(p, dst, src, probeBytes, fabric.Opts{Channels: sys.Inter.DirChannels})
		}
	})
	return timeRun(k)
}

// probeSearch is the compiler's plan search for a 1 MiB alltoall on fresh
// 16-rank NCCL communicators (a reused communicator would hit its cache).
func probeSearch(reps int) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < reps; i++ {
		k := sim.NewKernel()
		sys, err := topology.Preset(k, "thetagpu", 2)
		if err != nil {
			return 0, err
		}
		comms, err := core.NewBackendComms(core.NCCL, fabric.New(k, sys), sys.Devices())
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, _, err := comms[0].PlanFor("alltoall", 1<<20, 0, "auto"); err != nil {
			return 0, err
		}
		total += time.Since(t0)
	}
	return total, nil
}

// probeCCLAllreduce runs 4 MiB allreduces on raw NCCL communicators over
// one node of eight GPUs, bypassing MPI and the xCCL layer.
func probeCCLAllreduce(reps int) (time.Duration, error) {
	k := sim.NewKernel()
	sys, err := topology.Preset(k, "thetagpu", 1)
	if err != nil {
		return 0, err
	}
	comms, err := core.NewBackendComms(core.NCCL, fabric.New(k, sys), sys.Devices())
	if err != nil {
		return 0, err
	}
	var runErr error
	for _, cc := range comms {
		cc := cc
		k.Spawn("rank", func(p *sim.Proc) {
			s := cc.Device().NewStream()
			send, recv := cc.Device().MustMalloc(probeBytes), cc.Device().MustMalloc(probeBytes)
			for i := 0; i < reps; i++ {
				if err := cc.AllReduce(send, recv, probeBytes/4, ccl.Float32, ccl.Sum, s); err != nil && runErr == nil {
					runErr = err
				}
				s.Synchronize(p)
			}
		})
	}
	d, err := timeRun(k)
	if runErr != nil {
		return 0, runErr
	}
	return d, err
}

// probeMPIAllreduce runs 8-byte allreduces on the plain MPI runtime over
// 16 ranks: the eager small-message path.
func probeMPIAllreduce(reps int) (time.Duration, error) {
	k := sim.NewKernel()
	sys, err := topology.Preset(k, "thetagpu", 2)
	if err != nil {
		return 0, err
	}
	job := mpi.NewJobOnSystem(fabric.New(k, sys), mpi.MVAPICHProfile(), sys, sys.NumDevices())
	t0 := time.Now()
	err = job.Run(func(c *mpi.Comm) {
		send, recv := c.Device().MustMalloc(8), c.Device().MustMalloc(8)
		for i := 0; i < reps; i++ {
			c.Allreduce(send, recv, 2, mpi.Float32, mpi.OpSum)
		}
	})
	return time.Since(t0), err
}
