// Package world builds one simulated run end to end — kernel, system
// preset, fabric and the software stack under test — and runs a body on
// every rank. It is the one place the evaluation harnesses (omb, dl and
// the chaos soak) attach fault agents and metrics and settle the rank
// count: a harness names a Stack instead of wiring the layers by hand.
package world

import (
	"fmt"

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
	// StackPureCCL is the raw vendor library, driven directly.
	StackPureCCL Stack = "pure-ccl"
)

// Spec describes one world.
type Spec struct {
	// System is the topology preset: "thetagpu", "mri" or "voyager".
	System string
	// Nodes is the node count.
	Nodes int
	// Ranks is the rank count (0 = one per device). Run rejects a
	// negative count and one above the system's device count.
	Ranks int
	// Stack is the software under test. It also decides the xCCL
	// dispatch mode: hybrid-xccl runs core.Hybrid, pure-xccl core.PureCCL.
	Stack Stack
	// Backend picks the CCL ("" or core.Auto = by vendor).
	Backend core.BackendKind
	// Table overrides the xCCL tuning table (xCCL stacks only).
	Table *core.TuningTable
	// Compile turns on the collective compiler (xCCL stacks only).
	Compile bool
	// Resilience overrides the xCCL retry, breaker and watchdog policy
	// (xCCL stacks only); nil uses core.DefaultResilience.
	Resilience *core.Resilience
	// Faults, when non-nil, is the fault agent (typically a *fault.Plan)
	// attached to the fabric.
	Faults any
	// Metrics, when non-nil, receives the counters of every layer the
	// stack has: fabric, MPI, CCL and xCCL dispatch.
	Metrics *metrics.Registry
}

// Rank is one rank's handle on the stack under test: the blocking MPI
// collective interface every stack offers. *core.Comm, *mpi.Comm and
// *baseline.Comm satisfy it directly; pure-CCL ranks are *CCLRank. Code
// that needs a stack's own API (persistent handles, fault recovery)
// type-asserts, e.g. to *core.Comm.
type Rank interface {
	Rank() int
	Size() int
	Device() *device.Device
	Proc() *sim.Proc
	Barrier()
	Allreduce(send, recv *device.Buffer, count int, dt mpi.Datatype, op mpi.Op)
	Reduce(send, recv *device.Buffer, count int, dt mpi.Datatype, op mpi.Op, root int)
	Bcast(buf *device.Buffer, count int, dt mpi.Datatype, root int)
	Alltoall(send *device.Buffer, count int, dt mpi.Datatype, recv *device.Buffer)
	Allgather(send *device.Buffer, count int, dt mpi.Datatype, recv *device.Buffer)
	Gather(send *device.Buffer, count int, dt mpi.Datatype, recv *device.Buffer, root int)
	Scatter(send *device.Buffer, count int, dt mpi.Datatype, recv *device.Buffer, root int)
}

// Run builds the world spec describes and runs body on every rank,
// returning once the simulation completes (the world's kernel is closed
// by then).
func Run(spec Spec, body func(r Rank)) error {
	sys, fab, err := build(spec)
	if err != nil {
		return err
	}
	n, nd := spec.Ranks, sys.NumDevices()
	if n == 0 {
		n = nd
	}
	if n < 1 || n > nd {
		return fmt.Errorf("world: %d ranks on %d %s node(s) with %d devices (want 1 to %d, or 0 for one per device)",
			spec.Ranks, spec.Nodes, spec.System, nd, nd)
	}
	switch spec.Stack {
	case StackHybrid, StackPureXCCL:
		mode := core.Hybrid
		if spec.Stack == StackPureXCCL {
			mode = core.PureCCL
		}
		rt, err := core.NewRuntime(mpi.NewJobOnSystem(fab, mpi.MVAPICHProfile(), sys, n), core.Options{
			Backend: backend(spec), Mode: mode, Table: spec.Table, Compile: spec.Compile,
			Resilience: spec.Resilience, Metrics: spec.Metrics,
		})
		if err != nil {
			return err
		}
		return rt.Run(func(x *core.Comm) { body(x) })
	case StackPureCCL:
		return runCCL(spec, fab, sys.Devices()[:n], func(r *CCLRank) { body(r) })
	case StackMPI:
		return mpi.NewJobOnSystem(fab, mpi.MVAPICHProfile(), sys, n).Run(func(c *mpi.Comm) { body(c) })
	case StackOpenMPI, StackUCC:
		job := baseline.NewOpenMPIJob(fab, sys, n)
		if spec.Stack == StackUCC {
			return baseline.NewUCC(job).Run(func(x *baseline.Comm) { body(x) })
		}
		return job.Run(func(c *mpi.Comm) { body(c) })
	}
	return fmt.Errorf("world: unknown stack %q", spec.Stack)
}

// RunCCL builds the world spec describes and runs body on a raw vendor-CCL
// communicator over the devices pick chooses from the system, in rank
// order — the device-subset worlds of the point-to-point benchmarks.
// spec.Stack and spec.Ranks are ignored.
func RunCCL(spec Spec, pick func(sys *topology.System) []*device.Device, body func(r *CCLRank)) error {
	sys, fab, err := build(spec)
	if err != nil {
		return err
	}
	return runCCL(spec, fab, pick(sys), body)
}

// build makes the kernel, the preset system and its fabric, with the
// spec's fault agent and registry attached.
func build(spec Spec) (*topology.System, *fabric.Fabric, error) {
	k := sim.NewKernel()
	sys, err := topology.Preset(k, spec.System, spec.Nodes)
	if err != nil {
		return nil, nil, err
	}
	fab := fabric.New(k, sys)
	fab.SetFaults(spec.Faults)
	fab.SetMetrics(spec.Metrics)
	return sys, fab, nil
}

func backend(spec Spec) core.BackendKind {
	if spec.Backend == "" {
		return core.Auto
	}
	return spec.Backend
}

func runCCL(spec Spec, fab *fabric.Fabric, devs []*device.Device, body func(r *CCLRank)) error {
	kind, err := core.ResolveBackend(backend(spec), devs[0].Kind)
	if err != nil {
		return err
	}
	comms, err := core.NewBackendComms(kind, fab, devs)
	if err != nil {
		return err
	}
	bar := sim.NewBarrier(fab.Kernel(), len(comms))
	return ccl.Run(comms, func(cc *ccl.Comm, s *device.Stream, p *sim.Proc) {
		body(&CCLRank{cc: cc, s: s, p: p, bar: bar})
	})
}
