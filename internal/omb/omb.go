// Package omb reimplements the OSU Micro-Benchmarks measurement loops over
// the simulated stacks: point-to-point latency / bandwidth / bidirectional
// bandwidth (osu_latency, osu_bw, osu_bibw) and collective latency
// (osu_allreduce, osu_reduce, osu_bcast, osu_alltoall, osu_allgather).
//
// Benchmarks run against any of the evaluated software stacks: the
// proposed hybrid xCCL design, its pure-CCL mode, the plain GPU-aware MPI
// runtime, Open MPI + UCX, Open MPI + UCX + UCC, and the raw vendor CCLs
// (the "pure NCCL/MSCCL" dashed lines of Figs 5–6). Device buffers are
// used throughout — including on the simulated Habana system, mirroring
// the paper's OMB port to SynapseAI device memory.
package omb

import (
	"fmt"
	"time"

	"mpixccl/internal/core"
	"mpixccl/internal/device"
	"mpixccl/internal/metrics"
	"mpixccl/internal/mpi"
	"mpixccl/internal/world"
)

// Collective names an OMB collective benchmark.
type Collective string

// Collectives.
const (
	Allreduce Collective = "allreduce"
	Reduce    Collective = "reduce"
	Bcast     Collective = "bcast"
	Alltoall  Collective = "alltoall"
	Allgather Collective = "allgather"
	Gather    Collective = "gather"
	Scatter   Collective = "scatter"
)

// Config parameterizes one benchmark run.
type Config struct {
	// System is the topology preset: "thetagpu", "mri", or "voyager".
	System string
	// Nodes is the node count.
	Nodes int
	// Ranks is the total rank count (0 = one per device). A negative
	// count or one above the device count is an error.
	Ranks int
	// Stack is the software under test.
	Stack world.Stack
	// Backend picks the CCL (Auto = by vendor).
	Backend core.BackendKind
	// MinBytes and MaxBytes bound the size sweep, which doubles from
	// MinBytes (0 = the defaults, 4 B and 4 MiB). The runners reject a
	// sweep with MinBytes <= 0 or MinBytes > MaxBytes.
	MinBytes, MaxBytes int64
	// Iterations is the timed call count per size; one untimed warm-up
	// call precedes them.
	Iterations int
	// Table overrides the hybrid tuning table.
	Table *core.TuningTable
	// ChunkSweep lists the hierarchical pipeline chunk sizes Tune tries on
	// multi-node shapes (nil = 256 KiB and 1 MiB).
	ChunkSweep []int64
	// NoAlgoSweep restricts Tune to the original binary MPI/CCL decision,
	// skipping the hierarchical algorithm candidates.
	NoAlgoSweep bool
	// Metrics, when non-nil, aggregates the stack-under-test's runtime
	// counters (dispatch paths, fallbacks, protocol choices, CCL launches)
	// into the registry for post-run inspection.
	Metrics *metrics.Registry
	// Faults, when non-nil, is a fault agent (typically a *fault.Plan)
	// attached to the run's fabric: CCL call/comm-init injection plus
	// link-degradation windows.
	Faults any
	// Resilience overrides the xCCL runtime's retry/breaker policy
	// (hybrid and pure-xccl stacks); nil uses the defaults.
	Resilience *core.Resilience
	// Persistent runs the allreduce sweep on persistent handles (hybrid
	// and pure-xccl stacks): one handle per message size, built on the
	// first call for that size, with every timed iteration a
	// Start/Wait wave — the MPI-4 MPI_Allreduce_init measurement mode.
	// Other operations and stacks ignore the flag.
	Persistent bool
	// Compile turns on the collective compiler in the xCCL stacks: the
	// synthesized collectives (alltoall(v), gather, scatter) run compiled
	// plans picked by the cost-model search instead of the group
	// send-recv loop (core.Options.Compile).
	Compile bool
}

// fillDefaults completes the config and rejects a size sweep that is
// empty or never ends.
func (c *Config) fillDefaults() error {
	if c.System == "" {
		c.System = "thetagpu"
	}
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.MinBytes == 0 {
		c.MinBytes = 4
	}
	if c.MaxBytes == 0 {
		c.MaxBytes = 4 << 20
	}
	if c.Iterations == 0 {
		c.Iterations = 3
	}
	if c.Backend == "" {
		c.Backend = core.Auto
	}
	if c.Stack == "" {
		c.Stack = world.StackHybrid
	}
	if c.MinBytes <= 0 || c.MinBytes > c.MaxBytes {
		return fmt.Errorf("omb: bad size sweep: min %d, max %d bytes (want 0 < min <= max)", c.MinBytes, c.MaxBytes)
	}
	return nil
}

// Result is one row of an OMB table.
type Result struct {
	// Bytes is the per-rank message size.
	Bytes int64
	// Latency is the average operation latency (max across ranks).
	Latency time.Duration
	// MinLatency and MaxLatency are the extremes across ranks (the
	// osu_* "-f" full-results columns); zero when only one rank reports.
	MinLatency, MaxLatency time.Duration
	// BandwidthMBs is payload megabytes per second (pt2pt benches only).
	BandwidthMBs float64
}

// Sizes returns the power-of-two sweep [min, max].
func Sizes(min, max int64) []int64 {
	var out []int64
	for s := min; s <= max; s *= 2 {
		out = append(out, s)
	}
	return out
}

// RunCollective measures collective latency across the size sweep and
// returns one Result per size.
func RunCollective(cfg Config, op Collective) ([]Result, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	sizes := Sizes(cfg.MinBytes, cfg.MaxBytes)
	results := make([]Result, len(sizes))
	err := world.Run(cfg.spec(), func(r world.Rank) {
		do := func(send, recv *device.Buffer, count int) { collOp(r, op, send, recv, count) }
		if x, ok := r.(*core.Comm); ok && cfg.Persistent && op == Allreduce {
			do = persistentAllreduce(x)
		}
		// Only the gather-family ops need n-scaled buffers.
		n := int64(1)
		if op == Alltoall || op == Allgather || op == Gather || op == Scatter {
			n = int64(r.Size())
		}
		maxBuf := sizes[len(sizes)-1]
		send := r.Device().MustMalloc(maxBuf * n)
		recv := r.Device().MustMalloc(maxBuf * n)
		p := r.Proc()
		for si, bytes := range sizes {
			count := int(bytes / 4) // float32 elements, like OMB defaults
			if count == 0 {
				count = 1
			}
			do(send, recv, count) // warm-up
			r.Barrier()
			var total time.Duration
			for i := 0; i < cfg.Iterations; i++ {
				start := p.Now()
				do(send, recv, count)
				total += p.Now() - start
			}
			avg := total / time.Duration(cfg.Iterations)
			if avg > results[si].Latency {
				results[si].Latency = avg
			}
			if avg > results[si].MaxLatency {
				results[si].MaxLatency = avg
			}
			if results[si].MinLatency == 0 || avg < results[si].MinLatency {
				results[si].MinLatency = avg
			}
			results[si].Bytes = bytes
			r.Barrier()
		}
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// spec is the world the config describes.
func (cfg *Config) spec() world.Spec {
	return world.Spec{System: cfg.System, Nodes: cfg.Nodes, Ranks: cfg.Ranks,
		Stack: cfg.Stack, Backend: cfg.Backend, Table: cfg.Table, Compile: cfg.Compile,
		Resilience: cfg.Resilience, Faults: cfg.Faults, Metrics: cfg.Metrics}
}

// persistentAllreduce is the allreduce sweep on persistent handles: one
// handle per message size, rebuilt when the size changes (every rank hits
// the same sequence points, so the Init rendezvous lines up).
func persistentAllreduce(x *core.Comm) func(send, recv *device.Buffer, count int) {
	var po *core.PersistentOp
	poCount := -1
	return func(send, recv *device.Buffer, count int) {
		if count != poCount {
			if po != nil {
				po.Free()
			}
			var err error
			po, err = x.AllReduceInit(send.Slice(0, int64(count)*4),
				recv.Slice(0, int64(count)*4), count, mpi.Float32, mpi.OpSum)
			if err != nil {
				panic(fmt.Sprintf("omb: persistent init: %v", err))
			}
			poCount = count
		}
		if err := po.Do(); err != nil {
			panic(fmt.Sprintf("omb: persistent allreduce: %v", err))
		}
	}
}

// collOp issues one blocking float32 collective of count elements per
// block, rooted at rank 0, on any stack.
func collOp(c world.Rank, op Collective, send, recv *device.Buffer, count int) {
	blk := int64(count) * 4
	all := blk * int64(c.Size())
	switch op {
	case Allreduce:
		c.Allreduce(send.Slice(0, blk), recv.Slice(0, blk), count, mpi.Float32, mpi.OpSum)
	case Reduce:
		c.Reduce(send.Slice(0, blk), recv.Slice(0, blk), count, mpi.Float32, mpi.OpSum, 0)
	case Bcast:
		c.Bcast(send.Slice(0, blk), count, mpi.Float32, 0)
	case Alltoall:
		c.Alltoall(send.Slice(0, all), count, mpi.Float32, recv.Slice(0, all))
	case Allgather:
		c.Allgather(send.Slice(0, blk), count, mpi.Float32, recv.Slice(0, all))
	case Gather:
		c.Gather(send.Slice(0, blk), count, mpi.Float32, recv.Slice(0, all), 0)
	case Scatter:
		c.Scatter(send.Slice(0, all), count, mpi.Float32, recv.Slice(0, blk), 0)
	}
}
