// Package baseline implements the comparison stacks of the paper's
// evaluation: Open MPI + UCX (a heavier-pathed MPI runtime) and Open MPI +
// UCX + UCC (the Unified Collective Communication layer, which can offload
// large collectives to vendor CCL transports but pays its own CL/TL
// dispatch costs and loses efficiency across nodes — the 10% multi-node
// deficit the paper observes).
package baseline

import (
	"fmt"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/ccl/nccl"
	"mpixccl/internal/ccl/rccl"
	"mpixccl/internal/core"
	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// NewOpenMPIJob builds an Open MPI + UCX flavored job on the system.
func NewOpenMPIJob(fab *fabric.Fabric, sys *topology.System, nranks int) *mpi.Job {
	return mpi.NewJobOnSystem(fab, mpi.OpenMPIUCXProfile(), sys, nranks)
}

// UCC models the UCC collective layer stacked on Open MPI + UCX.
type UCC struct {
	job *mpi.Job

	// dispatch is the per-call CL/TL selection cost of the UCC framework.
	dispatch time.Duration
	// offloadThreshold is the payload size above which UCC offloads to a
	// CCL transport; below it UCC runs its own UCX-based algorithms
	// (modeled as the Open MPI path).
	offloadThreshold int64
	// fragBytes pipelines offloaded collectives into fragments, UCC's
	// CL-level pipelining; each fragment is a separate CCL operation.
	fragBytes int64
	// interPenalty scales CCL wire time across nodes (UCC's multi-node
	// inefficiency). The measured build had no cross-node CCL TL at all:
	// multi-node jobs never offload (the 10% multi-node deficit).
	interPenalty float64

	streams map[int]*device.Stream
	cache   map[int][]*ccl.Comm
}

// NewUCC wraps a job (normally built by NewOpenMPIJob) with the UCC layer.
func NewUCC(job *mpi.Job) *UCC {
	return &UCC{
		job:              job,
		dispatch:         4 * time.Microsecond,
		offloadThreshold: 64 << 10,
		fragBytes:        128 << 10,
		interPenalty:     1.25,
		streams:          make(map[int]*device.Stream),
		cache:            make(map[int][]*ccl.Comm),
	}
}

// Job returns the wrapped MPI job.
func (u *UCC) Job() *mpi.Job { return u.job }

// uccConfig derives the CCL transport personality UCC drives: the vendor
// library behind an extra framework hop, with reduced cross-node
// efficiency.
func uccConfig(kind device.Kind, interPenalty float64) (ccl.Config, error) {
	var cfg ccl.Config
	switch kind {
	case device.NvidiaGPU:
		cfg = nccl.Config()
	case device.AMDGPU:
		cfg = rccl.Config()
	default:
		return cfg, fmt.Errorf("baseline: UCC has no TL for %v", kind)
	}
	cfg.Name = "ucc/" + cfg.Name
	cfg.Launch += 42 * time.Microsecond // UCC CL dispatch + TL entry per fragment
	cfg.InterNodePenalty = interPenalty
	return cfg, nil
}

// Comm is a rank's UCC-layer view of an MPI communicator.
type Comm struct {
	u   *UCC
	mpi *mpi.Comm
}

// Wrap returns the rank's UCC view.
func (u *UCC) Wrap(c *mpi.Comm) *Comm { return &Comm{u: u, mpi: c} }

// Run launches fn on every rank with a wrapped world communicator.
func (u *UCC) Run(fn func(x *Comm)) error {
	return u.job.Run(func(c *mpi.Comm) { fn(u.Wrap(c)) })
}

// MPI exposes the underlying communicator.
func (x *Comm) MPI() *mpi.Comm { return x.mpi }

// Rank returns the communicator-local rank.
func (x *Comm) Rank() int { return x.mpi.Rank() }

// Size returns the communicator size.
func (x *Comm) Size() int { return x.mpi.Size() }

// Device returns the rank's accelerator.
func (x *Comm) Device() *device.Device { return x.mpi.Device() }

// Proc returns the rank's simulation process.
func (x *Comm) Proc() *sim.Proc { return x.mpi.Proc() }

func (x *Comm) cclComm() (*ccl.Comm, error) {
	u := x.u
	key := x.mpi.ContextID()
	comms, ok := u.cache[key]
	if !ok {
		cfg, err := uccConfig(x.Device().Kind, u.interPenalty)
		if err != nil {
			return nil, err
		}
		devs := make([]*device.Device, x.Size())
		for r := range devs {
			devs[r] = x.mpi.RankDevice(r)
		}
		comms, err = ccl.NewComms(x.mpi.Job().Fabric(), devs, cfg)
		if err != nil {
			return nil, err
		}
		u.cache[key] = comms
	}
	return comms[x.Rank()], nil
}

func (x *Comm) stream() *device.Stream {
	u := x.u
	wr := x.mpi.WorldRank()
	s, ok := u.streams[wr]
	if !ok {
		s = x.Device().NewStream()
		u.streams[wr] = s
	}
	return s
}

// spansNodes reports whether the communicator crosses node boundaries.
func (x *Comm) spansNodes() bool {
	n0 := x.mpi.RankDevice(0).Node
	for r := 1; r < x.Size(); r++ {
		if x.mpi.RankDevice(r).Node != n0 {
			return true
		}
	}
	return false
}

// offload runs fn per fragBytes pipeline fragment on the CCL transport
// when the payload clears the threshold, the communicator is single-node
// (the measured build had no cross-node CCL TL), and the transport exists;
// ok reports whether it ran. fn receives element offsets and counts.
func (x *Comm) offload(count int, dt mpi.Datatype, fragBytes int64, fn func(cc *ccl.Comm, s *device.Stream, cdt ccl.Datatype, offElems, nElems int) error) bool {
	x.mpi.Proc().Sleep(x.u.dispatch)
	bytes := int64(count) * int64(dt.Size())
	if bytes <= x.u.offloadThreshold || x.spansNodes() {
		return false
	}
	cdt, ok := core.CCLDatatype(dt)
	if !ok {
		return false
	}
	cc, err := x.cclComm()
	if err != nil {
		return false
	}
	s := x.stream()
	fragElems := int(fragBytes) / dt.Size()
	if fragElems < 1 {
		fragElems = 1
	}
	for off := 0; off < count; off += fragElems {
		n := fragElems
		if off+n > count {
			n = count - off
		}
		if err := fn(cc, s, cdt, off, n); err != nil {
			return false
		}
	}
	s.Synchronize(x.mpi.Proc())
	return true
}

// runUCX executes the fallthrough (UCX TL) path. Across nodes, UCC's own
// collective schedules trail Open MPI's tuned ones by ≈25% per operation,
// which nets out to the paper's observed ≈10% application-level deficit
// under plain Open MPI + UCX.
func (x *Comm) runUCX(fn func()) {
	p := x.mpi.Proc()
	start := p.Now()
	fn()
	if x.spansNodes() {
		p.Sleep((p.Now() - start) / 4)
	}
}

// Allreduce is MPI_Allreduce through the UCC layer.
func (x *Comm) Allreduce(sendBuf, recvBuf *device.Buffer, count int, dt mpi.Datatype, op mpi.Op) {
	esz := int64(dt.Size())
	cop, _ := core.CCLOp(op)
	if x.offload(count, dt, x.u.fragBytes, func(cc *ccl.Comm, s *device.Stream, cdt ccl.Datatype, off, n int) error {
		return cc.AllReduce(sendBuf.Slice(int64(off)*esz, int64(n)*esz),
			recvBuf.Slice(int64(off)*esz, int64(n)*esz), n, cdt, cop, s)
	}) {
		return
	}
	x.runUCX(func() { x.mpi.Allreduce(sendBuf, recvBuf, count, dt, op) })
}

// Reduce is MPI_Reduce through the UCC layer.
func (x *Comm) Reduce(sendBuf, recvBuf *device.Buffer, count int, dt mpi.Datatype, op mpi.Op, root int) {
	esz := int64(dt.Size())
	cop, _ := core.CCLOp(op)
	target := recvBuf
	if target == nil {
		target = sendBuf
	}
	if x.offload(count, dt, x.u.fragBytes, func(cc *ccl.Comm, s *device.Stream, cdt ccl.Datatype, off, n int) error {
		return cc.Reduce(sendBuf.Slice(int64(off)*esz, int64(n)*esz),
			target.Slice(int64(off)*esz, int64(n)*esz), n, cdt, cop, root, s)
	}) {
		return
	}
	x.runUCX(func() { x.mpi.Reduce(sendBuf, recvBuf, count, dt, op, root) })
}

// Bcast is MPI_Bcast through the UCC layer.
func (x *Comm) Bcast(buf *device.Buffer, count int, dt mpi.Datatype, root int) {
	esz := int64(dt.Size())
	if x.offload(count, dt, x.u.fragBytes, func(cc *ccl.Comm, s *device.Stream, cdt ccl.Datatype, off, n int) error {
		frag := buf.Slice(int64(off)*esz, int64(n)*esz)
		return cc.Broadcast(frag, frag, n, cdt, root, s)
	}) {
		return
	}
	x.runUCX(func() { x.mpi.Bcast(buf, count, dt, root) })
}

// Allgather is MPI_Allgather through the UCC layer (offloaded whole, as
// one fragment: the block layout does not fragment cleanly).
func (x *Comm) Allgather(sendBuf *device.Buffer, count int, dt mpi.Datatype, recvBuf *device.Buffer) {
	if x.offload(count, dt, int64(count)*int64(dt.Size()), func(cc *ccl.Comm, s *device.Stream, cdt ccl.Datatype, off, n int) error {
		return cc.AllGather(sendBuf, recvBuf, n, cdt, s)
	}) {
		return
	}
	x.runUCX(func() { x.mpi.Allgather(sendBuf, count, dt, recvBuf) })
}

// Alltoall is MPI_Alltoall through the UCC layer (UCX path plus dispatch
// cost: UCC has no CCL alltoall TL, matching its measured 2.8× deficit at
// 4 KB against the proposed design).
func (x *Comm) Alltoall(sendBuf *device.Buffer, count int, dt mpi.Datatype, recvBuf *device.Buffer) {
	x.mpi.Proc().Sleep(x.u.dispatch)
	x.runUCX(func() { x.mpi.Alltoall(sendBuf, count, dt, recvBuf) })
}

// Gather is MPI_Gather on the underlying Open MPI communicator: UCC has
// no gather team collective here.
func (x *Comm) Gather(sendBuf *device.Buffer, count int, dt mpi.Datatype, recvBuf *device.Buffer, root int) {
	x.mpi.Gather(sendBuf, count, dt, recvBuf, root)
}

// Scatter is MPI_Scatter on the underlying Open MPI communicator, like
// Gather.
func (x *Comm) Scatter(sendBuf *device.Buffer, count int, dt mpi.Datatype, recvBuf *device.Buffer, root int) {
	x.mpi.Scatter(sendBuf, count, dt, recvBuf, root)
}

// Barrier is MPI_Barrier (never offloaded).
func (x *Comm) Barrier() {
	x.mpi.Proc().Sleep(x.u.dispatch)
	x.mpi.Barrier()
}
