package dl

import (
	"fmt"
	"time"

	"mpixccl/internal/baseline"
	"mpixccl/internal/ccl"
	"mpixccl/internal/core"
	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/metrics"
	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// Engine selects the gradient-communication stack.
type Engine string

// Engines evaluated in §4.4.
const (
	// EngineXCCL is the proposed hybrid design inside the MPI runtime:
	// Horovod keeps calling MPI_Allreduce (the paper's Habana methodology
	// of replacing hcclAllreduce with MPI_Allreduce generalized).
	EngineXCCL Engine = "xccl-hybrid"
	// EnginePureCCL is Horovod's native CCL integration: the vendor
	// library driven directly, with Horovod's background-thread completion
	// polling on every fused operation.
	EnginePureCCL Engine = "pure-ccl"
	// EngineOpenMPI is Horovod over Open MPI + UCX.
	EngineOpenMPI Engine = "openmpi-ucx"
	// EngineUCC is Horovod over Open MPI + UCX + UCC.
	EngineUCC Engine = "openmpi-ucx-ucc"
)

// computeRate returns sustained single-accelerator training throughput
// (images/second) for the ResNet-50-class workload, per device kind —
// the no-communication upper bound, calibrated so the paper's absolute
// img/sec figures land in range.
func computeRate(kind device.Kind) float64 {
	switch kind {
	case device.NvidiaGPU:
		return 855 // A100, fp32 ResNet-50
	case device.AMDGPU:
		return 600 // MI100
	case device.HabanaHPU:
		return 1250 // Gaudi
	default:
		return 100
	}
}

// coordOverhead is Horovod's per-op negotiation/bookkeeping cost, paid by
// every engine.
const coordOverhead = 240 * time.Microsecond

// persistentPartitions is the per-bucket partition count of the persistent
// path: backprop marks each gradient partition ready as it is produced,
// letting the intra-node phase and the inter-node leader ring consume
// partitions while later ones are still being computed.
const persistentPartitions = 4

// pollOverhead is the per-fused-op completion cost of Horovod's own CCL
// integration (background-thread polling plus framework callback); the
// MPI-integrated engines don't pay it because completion rides the
// blocking MPI call.
func pollOverhead(system string) time.Duration {
	if system == "mri" {
		// ROCm-era Horovod completion polling (hipEvent queries on a busy
		// background thread) was far costlier than CUDA's.
		return 1100 * time.Microsecond
	}
	return 240 * time.Microsecond
}

// Config parameterizes a training run.
type Config struct {
	// System is the topology preset.
	System string
	// Nodes is the node count.
	Nodes int
	// Ranks is the worker count (0 = one per device).
	Ranks int
	// Model is the network (nil = ResNet50).
	Model *Model
	// BatchSize is the per-worker batch.
	BatchSize int
	// Steps is the measured step count (after one warmup step).
	Steps int
	// Engine is the gradient communication stack.
	Engine Engine
	// Backend picks the CCL for the xCCL and pure-CCL engines.
	Backend core.BackendKind
	// FusionBytes is Horovod's tensor-fusion threshold.
	FusionBytes int64
	// Table overrides the xCCL runtime's tuning table (EngineXCCL only) —
	// e.g. a hierarchical-collectives table from the offline tuner. nil
	// keeps the builtin table for the (system, backend) pair.
	Table *core.TuningTable
	// Metrics, when non-nil, aggregates training-loop instrumentation:
	// fusion-buffer fill levels, per-step duration, and per-bucket
	// allreduce latency distributions (rank 0's view), plus the runtime
	// layers' own counters for the engines that support them.
	Metrics *metrics.Registry
	// Faults, when non-nil, is attached to the fabric before the run
	// (typically a *fault.Plan carrying fail-stop crash rules). Only
	// TrainElastic consults it; Train assumes a healthy cluster.
	Faults any
	// Resilience overrides the xCCL resilience policy. TrainElastic
	// defaults it to DefaultResilience plus a 2 ms collective watchdog —
	// the deadline that turns a dead peer into a detectable failure.
	Resilience *core.Resilience
	// Persistent moves the gradient exchange onto persistent allreduce
	// handles (EngineXCCL only): one handle per fusion bucket, built
	// before the first step, so Horovod's per-op negotiation
	// (coordOverhead) and the dispatch/plan/scratch work are paid once
	// per run instead of once per step, and the steady-state loop
	// allocates nothing. Partitioned readiness overlaps backprop's
	// fusion-buffer fill with the collective (see persistentPartitions).
	// Other engines ignore the flag.
	Persistent bool
	// Spares is TrainElastic's pre-provisioned spare-rank count: the job
	// launches Ranks+Spares processes, the extras park in the runtime's
	// spare pool, and after a crash the survivors Shrink and then Grow
	// back to the original width by adopting spares (which restore their
	// replica from the last checkpoint). When the resilience policy is
	// defaulted, Spares > 0 also arms the heartbeat failure detector at
	// an eighth of the watchdog timeout, so crashes are caught in a few
	// heartbeat intervals instead of a full collective timeout. Other
	// train entry points ignore the field.
	Spares int
}

func (c *Config) fillDefaults() {
	if c.System == "" {
		c.System = "thetagpu"
	}
	if c.Nodes == 0 {
		c.Nodes = 1
	}
	if c.Model == nil {
		c.Model = ResNet50()
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.Steps == 0 {
		c.Steps = 2
	}
	if c.Engine == "" {
		c.Engine = EngineXCCL
	}
	if c.Backend == "" {
		c.Backend = core.Auto
	}
	if c.FusionBytes == 0 {
		c.FusionBytes = 2 << 20
	}
}

// Report summarizes a training run.
type Report struct {
	// ImgPerSec is aggregate cluster throughput.
	ImgPerSec float64
	// StepTime is the average measured step duration.
	StepTime time.Duration
	// Ranks and BatchSize echo the run shape.
	Ranks, BatchSize int
	// Buckets is the fused-allreduce count per step.
	Buckets int
}

// gradEngine is the per-rank allreduce entry point.
type gradEngine interface {
	allreduce(send, recv *device.Buffer, count int)
	barrier()
	proc() *sim.Proc
	dev() *device.Device
}

// Train runs the synchronous data-parallel training loop and reports
// throughput in virtual time.
func Train(cfg Config) (Report, error) {
	cfg.fillDefaults()
	k := sim.NewKernel()
	sys, err := topology.Preset(k, cfg.System, cfg.Nodes)
	if err != nil {
		return Report{}, err
	}
	fab := fabric.New(k, sys)
	nranks := cfg.Ranks
	if nranks == 0 {
		nranks = sys.NumDevices()
	}
	buckets := FuseBuckets(cfg.Model.Tensors, cfg.FusionBytes)
	var maxBucket int64
	for _, b := range buckets {
		if b.Bytes > maxBucket {
			maxBucket = b.Bytes
		}
	}
	// Fusion-buffer fill levels: how much of the FusionBytes budget each
	// fused bucket actually carries (ratio in [0,1]; a low tail means the
	// threshold is oversized for this model's gradient inventory).
	fillHist := cfg.Metrics.Histogram("dl_fusion_fill_ratio",
		"Fusion-buffer fill level per fused bucket (bucket bytes / fusion threshold).",
		[]float64{0.1, 0.25, 0.5, 0.75, 0.9, 1},
		metrics.Labels{"model": cfg.Model.Name, "engine": string(cfg.Engine)})
	for _, b := range buckets {
		fillHist.Observe(float64(b.Bytes) / float64(cfg.FusionBytes))
	}
	allreduceHist := cfg.Metrics.Histogram("dl_allreduce_latency_seconds",
		"Per-fused-bucket allreduce virtual latency (rank 0).",
		metrics.LatencyBuckets(), metrics.Labels{"engine": string(cfg.Engine)})
	stepHist := cfg.Metrics.Histogram("dl_step_seconds",
		"Training-step virtual duration (rank 0, warmup excluded).",
		[]float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1, 2, 5},
		metrics.Labels{"engine": string(cfg.Engine)})
	rate := computeRate(sys.Device(0).Kind)
	computeTime := time.Duration(float64(cfg.BatchSize) / rate * float64(time.Second))

	var stepTimes []time.Duration
	persistent := cfg.Persistent && cfg.Engine == EngineXCCL
	body := func(ge gradEngine) {
		if persistent {
			x := ge.(*mpiEngine).c.(*core.Comm)
			// Only rank 0 measures; adopt its non-empty result rather than
			// assigning unconditionally, or the last rank to finish would
			// overwrite the shared slice with its own empty one.
			if st := trainPersistent(&cfg, x, buckets, computeTime,
				allreduceHist, stepHist); len(st) > 0 {
				stepTimes = st
			}
			return
		}
		// Horovod allreduces gradients in place (send == recv).
		grad := ge.dev().MustMalloc(maxBucket)
		p := ge.proc()
		for step := 0; step < cfg.Steps+1; step++ {
			start := p.Now()
			// Forward + backward compute.
			p.Sleep(computeTime)
			// Gradient exchange, bucket by bucket in production order.
			measured := step > 0 && ge.dev().ID == 0 // rank 0, after warmup
			for _, b := range buckets {
				p.Sleep(coordOverhead)
				bucket := grad.Slice(0, b.Bytes)
				arStart := p.Now()
				ge.allreduce(bucket, bucket, int(b.Bytes/4))
				if measured {
					metrics.StartTimer(allreduceHist, arStart).Stop(p.Now())
				}
			}
			ge.barrier()
			if measured {
				stepTimes = append(stepTimes, p.Now()-start)
				metrics.StartTimer(stepHist, start).Stop(p.Now())
			}
		}
	}

	if err := launch(&cfg, sys, fab, nranks, body); err != nil {
		return Report{}, err
	}
	var total time.Duration
	for _, st := range stepTimes {
		total += st
	}
	if len(stepTimes) == 0 {
		return Report{}, fmt.Errorf("dl: no steps measured")
	}
	avg := total / time.Duration(len(stepTimes))
	imgs := float64(cfg.BatchSize*nranks) / avg.Seconds()
	return Report{
		ImgPerSec: imgs, StepTime: avg,
		Ranks: nranks, BatchSize: cfg.BatchSize, Buckets: len(buckets),
	}, nil
}

// trainPersistent is the EngineXCCL hot loop on persistent handles: one
// partitioned allreduce handle per fusion bucket, built (with Horovod's
// per-op negotiation) before the first step. Gradient production is
// modeled as spread uniformly across the step's compute time; each
// partition is marked ready (MPI_Pready) the moment backprop would have
// filled it, so the collective consumes partitions while later ones are
// still being computed, and the handles are drained in production order
// at the end of the step. The buckets live at distinct offsets of one
// fusion arena because every bucket's exchange is in flight at once.
// Returns this rank's measured step times (empty except on rank 0).
func trainPersistent(cfg *Config, x *core.Comm, buckets []Bucket,
	computeTime time.Duration, allreduceHist, stepHist *metrics.Histogram,
) []time.Duration {
	var stepTimes []time.Duration
	p := x.MPI().Proc()
	var total int64
	offs := make([]int64, len(buckets))
	for i, b := range buckets {
		offs[i] = total
		total += b.Bytes
	}
	arena := x.Device().MustMalloc(total)
	handles := make([]*core.PersistentOp, len(buckets))
	slices := 0
	for i, b := range buckets {
		// The negotiation Horovod pays per op per step becomes a one-time
		// Init cost.
		p.Sleep(coordOverhead)
		buf := arena.Slice(offs[i], b.Bytes)
		h, err := x.AllReduceInitPartitioned(buf, buf, int(b.Bytes/4),
			mpi.Float32, mpi.OpSum, persistentPartitions)
		if err != nil {
			panic(fmt.Sprintf("dl: persistent init: %v", err))
		}
		handles[i] = h
		slices += h.Parts()
	}
	defer func() {
		for _, h := range handles {
			h.Free()
		}
	}()
	for step := 0; step < cfg.Steps+1; step++ {
		start := p.Now()
		measured := step > 0 && x.Device().ID == 0
		for _, h := range handles {
			if err := h.Start(); err != nil {
				panic(fmt.Sprintf("dl: persistent start: %v", err))
			}
		}
		// Forward + backward compute, with per-partition readiness
		// signaled as the gradients are produced (cumulative division, so
		// the slices sum to computeTime exactly).
		var done time.Duration
		idx := 0
		for _, h := range handles {
			for k := 0; k < h.Parts(); k++ {
				idx++
				target := computeTime * time.Duration(idx) / time.Duration(slices)
				p.Sleep(target - done)
				done = target
				h.Pready(k)
			}
		}
		for i, h := range handles {
			arStart := p.Now()
			if err := h.Wait(); err != nil {
				panic(fmt.Sprintf("dl: persistent wait (bucket %d): %v", i, err))
			}
			if measured {
				metrics.StartTimer(allreduceHist, arStart).Stop(p.Now())
			}
		}
		x.Barrier()
		if measured {
			stepTimes = append(stepTimes, p.Now()-start)
			metrics.StartTimer(stepHist, start).Stop(p.Now())
		}
	}
	return stepTimes
}

// launch builds the engine-specific world and runs body on every rank.
func launch(cfg *Config, sys *topology.System, fab *fabric.Fabric, nranks int, body func(ge gradEngine)) error {
	switch cfg.Engine {
	case EngineXCCL:
		job := mpi.NewJobOnSystem(fab, mpi.MVAPICHProfile(), sys, nranks)
		rt, err := core.NewRuntime(job, core.Options{Backend: cfg.Backend, Mode: core.Hybrid,
			Table: cfg.Table, Metrics: cfg.Metrics})
		if err != nil {
			return err
		}
		return rt.Run(func(x *core.Comm) { body(&mpiEngine{c: x, p: x.MPI().Proc()}) })
	case EngineOpenMPI:
		job := baseline.NewOpenMPIJob(fab, sys, nranks)
		job.SetMetrics(cfg.Metrics)
		return job.Run(func(c *mpi.Comm) { body(&mpiEngine{c: c, p: c.Proc()}) })
	case EngineUCC:
		job := baseline.NewOpenMPIJob(fab, sys, nranks)
		job.SetMetrics(cfg.Metrics)
		ucc := baseline.NewUCC(job)
		return ucc.Run(func(x *baseline.Comm) { body(&mpiEngine{c: x, p: x.MPI().Proc()}) })
	case EnginePureCCL:
		kind, err := core.ResolveBackend(cfg.Backend, sys.Device(0).Kind)
		if err != nil {
			return err
		}
		comms, err := core.NewBackendComms(kind, fab, sys.Devices()[:nranks])
		if err != nil {
			return err
		}
		if cfg.Metrics != nil {
			comms[0].SetMetrics(cfg.Metrics)
		}
		bar := sim.NewBarrier(fab.Kernel(), nranks)
		return ccl.Run(comms, func(cc *ccl.Comm, s *device.Stream, p *sim.Proc) {
			body(&cclEngine{cc: cc, s: s, p: p, bar: bar, poll: pollOverhead(cfg.System)})
		})
	default:
		return fmt.Errorf("dl: unknown engine %q", cfg.Engine)
	}
}

// mpiStack is what Horovod calls on the stacks it reaches through MPI:
// the hybrid runtime (*core.Comm), Open MPI (*mpi.Comm) and UCC
// (*baseline.Comm).
type mpiStack interface {
	Allreduce(send, recv *device.Buffer, count int, dt mpi.Datatype, op mpi.Op)
	Barrier()
	Device() *device.Device
}

// mpiEngine is the gradient engine of every MPI-interface stack: a
// blocking MPI_Allreduce per fused bucket.
type mpiEngine struct {
	c mpiStack
	p *sim.Proc
}

func (e *mpiEngine) allreduce(send, recv *device.Buffer, count int) {
	e.c.Allreduce(send, recv, count, mpi.Float32, mpi.OpSum)
}
func (e *mpiEngine) barrier()            { e.c.Barrier() }
func (e *mpiEngine) proc() *sim.Proc     { return e.p }
func (e *mpiEngine) dev() *device.Device { return e.c.Device() }

type cclEngine struct {
	cc   *ccl.Comm
	s    *device.Stream
	p    *sim.Proc
	bar  *sim.Barrier
	poll time.Duration
}

func (e *cclEngine) allreduce(send, recv *device.Buffer, count int) {
	if err := e.cc.AllReduce(send, recv, count, ccl.Float32, ccl.Sum, e.s); err != nil {
		panic(err)
	}
	e.s.Synchronize(e.p)
	// Horovod's background thread polls the CCL event and re-enters the
	// framework per fused op.
	e.p.Sleep(e.poll)
}
func (e *cclEngine) barrier()            { e.bar.Wait(e.p) }
func (e *cclEngine) proc() *sim.Proc     { return e.p }
func (e *cclEngine) dev() *device.Device { return e.cc.Device() }
