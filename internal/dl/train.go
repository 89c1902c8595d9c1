package dl

import (
	"fmt"
	"time"

	"mpixccl/internal/core"
	"mpixccl/internal/device"
	"mpixccl/internal/metrics"
	"mpixccl/internal/mpi"
	"mpixccl/internal/world"
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
	// Ranks is the worker count (0 = one per device, or for TrainElastic
	// every device not held as a spare). A negative count, or one that
	// with the spares exceeds the device count, is an error.
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
	// allreduce latency distributions (rank 0's view), plus the counters
	// of every layer the engine's stack has (fabric, MPI, CCL, xCCL).
	Metrics *metrics.Registry
	// Faults, when non-nil, is attached to the fabric before the run
	// (typically a *fault.Plan), on every engine. TrainElastic recovers
	// from the fail-stop crashes and partitions it carries; Train does not
	// recover, so there it suits link degradation and transient faults.
	Faults any
	// Resilience overrides the xCCL resilience policy of EngineXCCL
	// (nil = core.DefaultResilience) and of TrainElastic, which defaults
	// it to DefaultResilience plus a 2 ms collective watchdog — the
	// deadline that turns a dead peer into a detectable failure.
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

// stack maps an engine to the world stack it runs on.
func (e Engine) stack() (world.Stack, error) {
	switch e {
	case EngineXCCL:
		return world.StackHybrid, nil
	case EnginePureCCL:
		return world.StackPureCCL, nil
	case EngineOpenMPI:
		return world.StackOpenMPI, nil
	case EngineUCC:
		return world.StackUCC, nil
	}
	return "", fmt.Errorf("dl: unknown engine %q", e)
}

// spec is the world cfg trains on.
func (c *Config) spec(stack world.Stack) world.Spec {
	return world.Spec{System: c.System, Nodes: c.Nodes, Ranks: c.Ranks, Stack: stack,
		Backend: c.Backend, Table: c.Table, Resilience: c.Resilience,
		Faults: c.Faults, Metrics: c.Metrics}
}

// stepCompute is one worker's forward + backward time per step.
func stepCompute(cfg *Config, kind device.Kind) time.Duration {
	return time.Duration(float64(cfg.BatchSize) / computeRate(kind) * float64(time.Second))
}

// Train runs the synchronous data-parallel training loop and reports
// throughput in virtual time.
func Train(cfg Config) (Report, error) {
	cfg.fillDefaults()
	stack, err := cfg.Engine.stack()
	if err != nil {
		return Report{}, err
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
	var stepTimes []time.Duration
	persistent := cfg.Persistent && cfg.Engine == EngineXCCL
	var poll time.Duration
	if cfg.Engine == EnginePureCCL {
		poll = pollOverhead(cfg.System)
	}
	nranks := 0
	err = world.Run(cfg.spec(stack), func(r world.Rank) {
		nranks = r.Size()
		computeTime := stepCompute(&cfg, r.Device().Kind)
		if persistent {
			// Only rank 0 measures; adopt its non-empty result rather than
			// assigning unconditionally, or the last rank to finish would
			// overwrite the shared slice with its own empty one.
			if st := trainPersistent(&cfg, r.(*core.Comm), buckets, computeTime,
				allreduceHist, stepHist); len(st) > 0 {
				stepTimes = st
			}
			return
		}
		// Horovod allreduces gradients in place (send == recv).
		grad := r.Device().MustMalloc(maxBucket)
		p := r.Proc()
		for step := 0; step < cfg.Steps+1; step++ {
			start := p.Now()
			// Forward + backward compute.
			p.Sleep(computeTime)
			// Gradient exchange, bucket by bucket in production order.
			measured := step > 0 && r.Device().ID == 0 // rank 0, after warmup
			for _, b := range buckets {
				p.Sleep(coordOverhead)
				bucket := grad.Slice(0, b.Bytes)
				arStart := p.Now()
				r.Allreduce(bucket, bucket, int(b.Bytes/4), mpi.Float32, mpi.OpSum)
				if poll > 0 {
					// Horovod's own CCL integration polls the CCL event on a
					// background thread and re-enters the framework per
					// fused op.
					p.Sleep(poll)
				}
				if measured {
					metrics.StartTimer(allreduceHist, arStart).Stop(p.Now())
				}
			}
			r.Barrier()
			if measured {
				stepTimes = append(stepTimes, p.Now()-start)
				metrics.StartTimer(stepHist, start).Stop(p.Now())
			}
		}
	})
	if err != nil {
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
