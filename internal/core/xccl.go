// Package core implements the paper's primary contribution: the xCCL
// abstraction layer inside a GPU-aware MPI runtime (Fig 2).
//
// Applications keep calling standard MPI collectives on an mpi.Comm; the
// layer transparently decides, per call, whether to run the traditional MPI
// algorithm or to dispatch to the vendor collective communication library
// (NCCL, RCCL, HCCL, or MSCCL) appropriate for the accelerator:
//
//   - It identifies device buffers, manages per-rank streams, and caches
//     one CCL communicator per MPI communicator (§3.1).
//   - It maps MPI datatypes and reduction ops onto the backend's matrix and
//     falls back to the MPI path when the CCL cannot serve the request —
//     e.g. MPI_DOUBLE_COMPLEX anywhere, or anything but float on HCCL
//     (§3.2), or any runtime CCL error (§1.2 advantage 3).
//   - It synthesizes the collectives CCLs do not provide (Alltoall(v),
//     Gather, Scatter, ...) from xcclSend/xcclRecv group calls (§3.3,
//     Listing 1).
//   - In hybrid mode it consults an offline-tuned table to pick the faster
//     path per (operation, communicator, message size) (§3.4).
package core

import (
	"fmt"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/ccl/hccl"
	"mpixccl/internal/ccl/msccl"
	"mpixccl/internal/ccl/nccl"
	"mpixccl/internal/ccl/oneccl"
	"mpixccl/internal/ccl/rccl"
	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/metrics"
	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
	"mpixccl/internal/trace"
)

// Mode selects the dispatch policy.
type Mode int

const (
	// Hybrid consults the tuning table per call (the proposed design).
	Hybrid Mode = iota
	// PureCCL always uses the CCL path when the backend is capable
	// ("Proposed xCCL w/ Pure ..." in the evaluation).
	PureCCL
	// PureMPI never dispatches to a CCL (the traditional-MPI baseline).
	PureMPI
)

// String names the mode as the evaluation labels it.
func (m Mode) String() string {
	switch m {
	case Hybrid:
		return "hybrid-xccl"
	case PureCCL:
		return "pure-xccl"
	case PureMPI:
		return "pure-mpi"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// BackendKind names a CCL backend, or Auto to pick by accelerator vendor.
type BackendKind string

// Backend kinds.
const (
	Auto   BackendKind = "auto"
	NCCL   BackendKind = "nccl"
	RCCL   BackendKind = "rccl"
	HCCL   BackendKind = "hccl"
	MSCCL  BackendKind = "msccl"
	OneCCL BackendKind = "oneccl"
	NoCCL  BackendKind = "none"
	legacy             = "nccl-legacy" // internal: NCCL 2.12 for MSCCL baselines
)

// ResolveBackend resolves Auto using the device kind (the per-vendor
// mapping of Fig 2's bottom row).
func ResolveBackend(kind BackendKind, dev device.Kind) (BackendKind, error) {
	if kind != Auto {
		return kind, nil
	}
	switch dev {
	case device.NvidiaGPU:
		return NCCL, nil
	case device.AMDGPU:
		return RCCL, nil
	case device.HabanaHPU:
		return HCCL, nil
	case device.IntelGPU:
		return OneCCL, nil
	default:
		return "", fmt.Errorf("xccl: no CCL for device kind %v", dev)
	}
}

// backends maps each CCL kind to its personality and its communicator
// constructor.
var backends = map[BackendKind]struct {
	config func() ccl.Config
	init   func(*fabric.Fabric, []*device.Device) ([]*ccl.Comm, error)
}{
	NCCL:   {nccl.Config, nccl.New},
	RCCL:   {rccl.Config, rccl.New},
	HCCL:   {hccl.Config, hccl.New},
	MSCCL:  {msccl.Config, msccl.New},
	OneCCL: {oneccl.Config, oneccl.New},
	legacy: {
		func() ccl.Config { return nccl.VersionConfig(nccl.LegacyVersion) },
		func(fab *fabric.Fabric, devs []*device.Device) ([]*ccl.Comm, error) {
			return nccl.NewVersion(fab, devs, nccl.LegacyVersion)
		},
	},
}

// NewBackendComms instantiates the communicators of a backend kind
// (ncclCommInitAll and friends): the runtime's communicator cache and
// pure-CCL harnesses both build them here.
func NewBackendComms(kind BackendKind, fab *fabric.Fabric, devs []*device.Device) ([]*ccl.Comm, error) {
	b, ok := backends[kind]
	if !ok {
		return nil, fmt.Errorf("xccl: unknown backend %q", kind)
	}
	return b.init(fab, devs)
}

// LegacyNCCL names the NCCL 2.12 backend used as the MSCCL comparison
// baseline in Fig 5d.
const LegacyNCCL = BackendKind(legacy)

// Stats counts dispatch decisions, for tests and reporting.
type Stats struct {
	// CCLOps and MPIOps count operations executed on each path.
	CCLOps, MPIOps int
	// Retries counts CCL-path reissues of transient failures.
	Retries int
	// BreakerSkips counts CCL dispatches suppressed by an open circuit
	// breaker (the operations ride the MPI path without trying the CCL).
	BreakerSkips int
	// RankFailures counts fail-stopped ranks: each crash increments it
	// exactly once, on the dead rank's own fast-failing call (survivors'
	// watchdog verdicts detect the same crash but do not re-count it).
	RankFailures int
	// Suspicions counts confirmed heartbeat suspicions: peers whose beats
	// stopped and whom the fail-stop oracle confirmed dead. Retracted
	// (false-positive) suspicions are not counted here; see the
	// xccl_suspicions_total metric's outcome label.
	Suspicions int
	// Shrinks counts completed ULFM-style communicator shrinks.
	Shrinks int
	// Grows counts completed spare-rank communicator grows.
	Grows int
	// Partitions counts handled partition episodes: quorum shrinks that
	// excluded at least one alive-but-unreachable rank.
	Partitions int
	// FencedRanks counts ranks that fenced themselves on the minority
	// side of a partition (once per rank per fencing).
	FencedRanks int
	// Epoch is the current membership epoch: completed membership changes
	// (shrinks and grows) since the job started.
	Epoch int
	// Fallbacks counts MPI fallbacks by cause.
	Fallbacks struct {
		Datatype, Op, Device, HostBuffer, Error int
	}
}

// Options configures a Runtime.
type Options struct {
	// Backend picks the CCL; Auto selects by accelerator vendor.
	Backend BackendKind
	// Mode is the dispatch policy; Hybrid is the paper's proposed design.
	Mode Mode
	// Table overrides the built-in tuning table (Hybrid mode only).
	Table *TuningTable
	// Trace, when non-nil, records every collective call (op, path,
	// bytes, virtual duration).
	Trace *trace.Recorder
	// Metrics, when non-nil, aggregates runtime counters and latency
	// histograms: per-op path selection, fallback activations, tuning-table
	// hits/misses. NewRuntime attaches it to the job's fabric, so the
	// MPI- and CCL-layer instrumentation of the communicators this
	// runtime creates reports into it too.
	Metrics *metrics.Registry
	// Resilience tunes the retry/circuit-breaker/degradation policy; nil
	// uses DefaultResilience().
	Resilience *Resilience
	// Compile turns on the collective compiler for the synthesized
	// collectives (alltoall(v), gather, scatter): when the tuning table
	// names no plan for a CCL band, the cost-model search picks one
	// instead of the group send-recv loop. Off by default — dispatch is
	// then byte-identical to the pre-compiler layer.
	Compile bool
}

// Runtime is the per-job xCCL state: backend choice, communicator cache,
// and per-rank streams. One Runtime serves every rank of the job (ranks
// share it safely because the simulation is cooperatively scheduled).
type Runtime struct {
	job   *mpi.Job
	opts  Options
	kind  BackendKind
	cfg   *ccl.Config // kind's personality, resolved once for decide (nil: none)
	table *TuningTable
	stats Stats

	streams map[int]*device.Stream // world rank -> stream
	cache   map[int][]*ccl.Comm    // context id -> per-local-rank CCL comms
	pending map[int]*commInit      // context id -> in-flight CCL comm creation

	policy       *Resilience             // resolved resilience policy (never nil)
	breakers     map[breakerKey]*breaker // per-(backend, op) circuit breakers
	breakerWaves waves[bool]             // wave-consistent breaker verdicts
	sizeWaves    waves[int64]            // wave-consistent alltoallv table sizes

	status     map[int]ctxStatus     // context id -> membership status (absent: open)
	agreements map[int]*agreement    // in-flight Shrink or Grow agreement by context id
	fenced     map[int]time.Duration // fenced world ranks -> fence time (partition minority)

	health    *healthMonitor     // heartbeat failure detector (nil when off)
	worldMPI  map[int]*mpi.Comm  // world rank -> its world communicator handle
	sparePool map[int]*spareSlot // parked spare ranks by world rank
}

// commInit is one in-flight CCL communicator creation: ranks rendezvous
// here (like the MPI-bootstrapped ncclCommInitRank exchange), the last
// distinct rank performs the creation, and everyone observes the same
// comms or the same error. A failed init is not cached, so a later
// collective wave retries it.
type commInit struct {
	seen  map[int]bool // distinct ranks arrived at the rendezvous
	ready *sim.Event
	comms []*ccl.Comm
	err   error
}

// NewRuntime builds the xCCL layer for a job. With Backend Auto the CCL is
// chosen from the job's first device; with Mode Hybrid and no explicit
// Table the built-in table for (system, backend) is used.
func NewRuntime(job *mpi.Job, opts Options) (*Runtime, error) {
	rt := &Runtime{
		job:        job,
		opts:       opts,
		streams:    make(map[int]*device.Stream),
		cache:      make(map[int][]*ccl.Comm),
		pending:    make(map[int]*commInit),
		breakers:   make(map[breakerKey]*breaker),
		status:     make(map[int]ctxStatus),
		agreements: make(map[int]*agreement),
		fenced:     make(map[int]time.Duration),
		worldMPI:   make(map[int]*mpi.Comm),
		sparePool:  make(map[int]*spareSlot),
	}
	rt.policy = opts.Resilience
	if rt.policy == nil {
		rt.policy = DefaultResilience()
	}
	if rt.policy.Integrity {
		job.Fabric().SetIntegrity(fabric.Integrity{Enabled: true, MaxRetries: rt.policy.MaxRetries})
	}
	if rt.policy.HeartbeatInterval > 0 {
		rt.health = newHealthMonitor(rt, rt.policy.HeartbeatInterval)
	}
	if opts.Mode != PureMPI {
		kind, err := ResolveBackend(opts.Backend, job.Fabric().System().Device(0).Kind)
		if err != nil {
			return nil, err
		}
		rt.kind = kind
		if b, ok := backends[kind]; ok {
			cfg := b.config()
			rt.cfg = &cfg
		}
	}
	rt.table = opts.Table
	if rt.table == nil {
		sys := job.Fabric().System()
		rt.table = DefaultTableFor(sys.Name, rt.kind, sys.NumNodes() > 1)
	}
	// One registry observes the whole stack. Attached to the fabric, it
	// collects the MPI runtime's protocol counters, the fabric's own
	// counters and the CCL backends' instruments beside the xCCL dispatch
	// metrics.
	if opts.Metrics != nil {
		job.Fabric().SetMetrics(opts.Metrics)
	}
	return rt, nil
}

// Resilience returns the active (resolved) resilience policy.
func (rt *Runtime) Resilience() *Resilience { return rt.policy }

// Backend reports the resolved CCL backend.
func (rt *Runtime) Backend() BackendKind { return rt.kind }

// Job returns the MPI job the runtime layers over.
func (rt *Runtime) Job() *mpi.Job { return rt.job }

// Mode reports the dispatch policy.
func (rt *Runtime) Mode() Mode { return rt.opts.Mode }

// Stats returns dispatch counters.
func (rt *Runtime) Stats() Stats { return rt.stats }

// Table returns the active tuning table.
func (rt *Runtime) Table() *TuningTable { return rt.table }

// stream returns (creating lazily) the xCCL-internal stream for a rank's
// device — the stream handling the layer manages for the user (§1.2
// advantage 2).
func (rt *Runtime) stream(worldRank int, dev *device.Device) *device.Stream {
	s, ok := rt.streams[worldRank]
	if !ok {
		s = dev.NewStream()
		rt.streams[worldRank] = s
	}
	return s
}

// Wrap returns the rank's xCCL view of an MPI communicator. Call it from
// the rank's process.
func (rt *Runtime) Wrap(c *mpi.Comm) *Comm {
	return &Comm{rt: rt, mpi: c}
}

// Run launches fn on every rank of the job with a wrapped world
// communicator and drives the simulation to completion. It also hosts the
// runtime's ambient health machinery: world communicator handles are
// registered for the spare-rank Grow path, heartbeat daemons (when the
// policy arms them) start per rank, and both wind down when every
// non-spare rank has returned — parked spares are released so the job can
// drain.
func (rt *Runtime) Run(fn func(x *Comm)) error {
	done := 0
	return rt.job.Run(func(c *mpi.Comm) {
		rt.worldMPI[c.Rank()] = c
		if rt.health != nil {
			rt.health.start(c)
		}
		fn(rt.Wrap(c))
		done++
		if done+len(rt.sparePool) == rt.job.Size() {
			// Every rank still computing is a parked spare: release them
			// (they return without adoption) and stop the heartbeats so
			// the kernel can drain. Released spares re-enter this check
			// with an empty pool, which re-fires the idempotent stop.
			rt.releaseSpares()
			if rt.health != nil {
				rt.health.stop()
			}
		}
	})
}

// Suspected returns a copy of the heartbeat detector's confirmed
// suspicions: world rank -> virtual time of suspicion. Nil when the
// detector is off or has suspected nobody.
func (rt *Runtime) Suspected() map[int]time.Duration {
	if rt.health == nil || len(rt.health.suspected) == 0 {
		return nil
	}
	out := make(map[int]time.Duration, len(rt.health.suspected))
	for r, t := range rt.health.suspected {
		out[r] = t
	}
	return out
}

// CCLDatatype translates an MPI datatype to the CCL's, reporting false for
// types no CCL implements (the DoubleComplex fallback of §3.2).
func CCLDatatype(dt mpi.Datatype) (ccl.Datatype, bool) {
	switch dt {
	case mpi.Byte:
		return ccl.Int8, true
	case mpi.Int32:
		return ccl.Int32, true
	case mpi.Int64:
		return ccl.Int64, true
	case mpi.Float16:
		return ccl.Float16, true
	case mpi.Float32:
		return ccl.Float32, true
	case mpi.Float64:
		return ccl.Float64, true
	default:
		return 0, false
	}
}

// CCLOp translates an MPI reduction to the CCL's.
func CCLOp(op mpi.Op) (ccl.RedOp, bool) {
	switch op {
	case mpi.OpSum:
		return ccl.Sum, true
	case mpi.OpProd:
		return ccl.Prod, true
	case mpi.OpMax:
		return ccl.Max, true
	case mpi.OpMin:
		return ccl.Min, true
	default:
		return 0, false
	}
}
