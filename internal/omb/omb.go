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

	"mpixccl/internal/baseline"
	"mpixccl/internal/core"
	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/metrics"
	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// Stack identifies the software under test.
type Stack string

// Stacks.
const (
	// StackHybrid is the paper's proposed hybrid xCCL design.
	StackHybrid Stack = "hybrid-xccl"
	// StackPureXCCL is the proposed layer forced to the CCL path.
	StackPureXCCL Stack = "pure-xccl"
	// StackMPI is the plain GPU-aware MPI runtime (MVAPICH flavor).
	StackMPI Stack = "mpi"
	// StackOpenMPI is Open MPI + UCX.
	StackOpenMPI Stack = "openmpi-ucx"
	// StackUCC is Open MPI + UCX + UCC.
	StackUCC Stack = "openmpi-ucx-ucc"
	// StackPureCCL is the raw vendor library through OMB's CCL benchmarks.
	StackPureCCL Stack = "pure-ccl"
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
	// Ranks is the total rank count (0 = one per device).
	Ranks int
	// Stack is the software under test.
	Stack Stack
	// Backend picks the CCL (Auto = by vendor).
	Backend core.BackendKind
	// MinBytes and MaxBytes bound the size sweep (powers of two).
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

func (c *Config) fillDefaults() {
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
		c.Stack = StackHybrid
	}
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

// world is a constructed simulation universe for one run.
type world struct {
	k   *sim.Kernel
	sys *topology.System
	fab *fabric.Fabric
}

func buildWorld(cfg *Config) (*world, error) {
	k := sim.NewKernel()
	sys, err := topology.Preset(k, cfg.System, cfg.Nodes)
	if err != nil {
		return nil, err
	}
	fab := fabric.New(k, sys)
	if cfg.Faults != nil {
		fab.SetFaults(cfg.Faults)
	}
	if cfg.Metrics != nil {
		fab.SetMetrics(cfg.Metrics)
	}
	return &world{k: k, sys: sys, fab: fab}, nil
}

func (cfg *Config) ranks(sys *topology.System) int {
	if cfg.Ranks > 0 {
		return cfg.Ranks
	}
	return sys.NumDevices()
}

// collDriver abstracts one rank's collective entry point across stacks.
type collDriver struct {
	do      func(op Collective, send, recv *device.Buffer, count int)
	barrier func()
	proc    *sim.Proc
	dev     *device.Device
	rank    int
}

// RunCollective measures collective latency across the size sweep and
// returns one Result per size.
func RunCollective(cfg Config, op Collective) ([]Result, error) {
	cfg.fillDefaults()
	w, err := buildWorld(&cfg)
	if err != nil {
		return nil, err
	}
	nranks := cfg.ranks(w.sys)
	sizes := Sizes(cfg.MinBytes, cfg.MaxBytes)
	results := make([]Result, len(sizes))

	body := func(d *collDriver) {
		// Only the gather-family ops need n-scaled buffers.
		n := int64(1)
		if op == Alltoall || op == Allgather || op == Gather || op == Scatter {
			n = int64(nranks)
		}
		maxBuf := sizes[len(sizes)-1]
		send := d.dev.MustMalloc(maxBuf * n)
		recv := d.dev.MustMalloc(maxBuf * n)
		for si, bytes := range sizes {
			count := int(bytes / 4) // float32 elements, like OMB defaults
			if count == 0 {
				count = 1
			}
			d.do(op, send, recv, count) // warm-up
			d.barrier()
			var total time.Duration
			for i := 0; i < cfg.Iterations; i++ {
				start := d.proc.Now()
				d.do(op, send, recv, count)
				total += d.proc.Now() - start
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
			d.barrier()
		}
	}

	if err := launchCollective(&cfg, w, nranks, body); err != nil {
		return nil, err
	}
	return results, nil
}

// launchCollective builds the requested stack and runs body per rank.
func launchCollective(cfg *Config, w *world, nranks int, body func(d *collDriver)) error {
	switch cfg.Stack {
	case StackHybrid, StackPureXCCL:
		mode := core.Hybrid
		if cfg.Stack == StackPureXCCL {
			mode = core.PureCCL
		}
		job := mpi.NewJobOnSystem(w.fab, mpi.MVAPICHProfile(), w.sys, nranks)
		rt, err := core.NewRuntime(job, core.Options{Backend: cfg.Backend, Mode: mode,
			Table: cfg.Table, Metrics: cfg.Metrics, Resilience: cfg.Resilience,
			Compile: cfg.Compile})
		if err != nil {
			return err
		}
		return rt.Run(func(x *core.Comm) {
			// Persistent mode: the allreduce sweep reuses one handle per
			// message size, rebuilt when the size changes (every rank hits
			// the same sequence points, so the Init rendezvous lines up).
			var po *core.PersistentOp
			poCount := -1
			body(&collDriver{
				do: func(op Collective, send, recv *device.Buffer, count int) {
					if cfg.Persistent && op == Allreduce {
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
						return
					}
					collOp(x, op, send, recv, count)
				},
				barrier: func() { x.MPI().Barrier() },
				proc:    x.MPI().Proc(), dev: x.Device(), rank: x.Rank(),
			})
		})
	case StackMPI, StackOpenMPI, StackUCC:
		var job *mpi.Job
		if cfg.Stack == StackMPI {
			job = mpi.NewJobOnSystem(w.fab, mpi.MVAPICHProfile(), w.sys, nranks)
		} else {
			job = baseline.NewOpenMPIJob(w.fab, w.sys, nranks)
		}
		job.SetMetrics(cfg.Metrics)
		if cfg.Stack == StackUCC {
			return baseline.NewUCC(job).Run(func(x *baseline.Comm) {
				body(&collDriver{
					do:      func(op Collective, send, recv *device.Buffer, count int) { collOp(x, op, send, recv, count) },
					barrier: x.Barrier,
					proc:    x.MPI().Proc(), dev: x.Device(), rank: x.Rank(),
				})
			})
		}
		return job.Run(func(c *mpi.Comm) {
			body(&collDriver{
				do:      func(op Collective, send, recv *device.Buffer, count int) { collOp(c, op, send, recv, count) },
				barrier: c.Barrier,
				proc:    c.Proc(), dev: c.Device(), rank: c.Rank(),
			})
		})
	case StackPureCCL:
		return runPureCCLCollective(cfg, w, nranks, body)
	default:
		return fmt.Errorf("omb: unknown stack %q", cfg.Stack)
	}
}

// collComm is the collective method set the hybrid runtime (*core.Comm),
// the MPI runtimes (*mpi.Comm) and UCC (*baseline.Comm) share.
type collComm interface {
	Size() int
	Allreduce(send, recv *device.Buffer, count int, dt mpi.Datatype, op mpi.Op)
	Reduce(send, recv *device.Buffer, count int, dt mpi.Datatype, op mpi.Op, root int)
	Bcast(buf *device.Buffer, count int, dt mpi.Datatype, root int)
	Alltoall(send *device.Buffer, count int, dt mpi.Datatype, recv *device.Buffer)
	Allgather(send *device.Buffer, count int, dt mpi.Datatype, recv *device.Buffer)
	Gather(send *device.Buffer, count int, dt mpi.Datatype, recv *device.Buffer, root int)
	Scatter(send *device.Buffer, count int, dt mpi.Datatype, recv *device.Buffer, root int)
}

// collOp issues one blocking float32 collective of count elements per
// block, rooted at rank 0, on any of the MPI-interface stacks.
func collOp(c collComm, op Collective, send, recv *device.Buffer, count int) {
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
