package world

import (
	"fmt"

	"mpixccl/internal/ccl"
	"mpixccl/internal/core"
	"mpixccl/internal/device"
	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
)

// CCLRank is one rank of a pure-CCL world: the vendor communicator, the
// rank's stream and process, and a barrier over the world's ranks. Its
// collectives are blocking (launch, then synchronize the stream), and the
// ones the CCL does not provide (alltoall, gather, scatter) run ccl's
// group send/recv synthesis, as OMB's NCCL benchmarks do.
type CCLRank struct {
	cc  *ccl.Comm
	s   *device.Stream
	p   *sim.Proc
	bar *sim.Barrier
}

// CCL returns the rank's vendor communicator.
func (r *CCLRank) CCL() *ccl.Comm { return r.cc }

// Stream returns the rank's stream.
func (r *CCLRank) Stream() *device.Stream { return r.s }

// Proc returns the rank's simulation process.
func (r *CCLRank) Proc() *sim.Proc { return r.p }

// Rank returns the communicator rank.
func (r *CCLRank) Rank() int { return r.cc.Rank() }

// Size returns the communicator size.
func (r *CCLRank) Size() int { return r.cc.Size() }

// Device returns the rank's accelerator.
func (r *CCLRank) Device() *device.Device { return r.cc.Device() }

// Barrier waits for every rank of the world.
func (r *CCLRank) Barrier() { r.bar.Wait(r.p) }

// Allreduce is ncclAllReduce.
func (r *CCLRank) Allreduce(send, recv *device.Buffer, count int, dt mpi.Datatype, op mpi.Op) {
	r.sync(r.cc.AllReduce(send, recv, count, dtype(dt), redop(op), r.s))
}

// Reduce is ncclReduce.
func (r *CCLRank) Reduce(send, recv *device.Buffer, count int, dt mpi.Datatype, op mpi.Op, root int) {
	r.sync(r.cc.Reduce(send, recv, count, dtype(dt), redop(op), root, r.s))
}

// Bcast is ncclBroadcast from buf into a second view of the same bytes,
// so the root pays the local send-to-recv copy that an out-of-place
// broadcast makes (ccl skips it only when both arguments are one buffer).
func (r *CCLRank) Bcast(buf *device.Buffer, count int, dt mpi.Datatype, root int) {
	r.sync(r.cc.Broadcast(buf, buf.Slice(0, buf.Len()), count, dtype(dt), root, r.s))
}

// Alltoall is the group send/recv alltoall.
func (r *CCLRank) Alltoall(send *device.Buffer, count int, dt mpi.Datatype, recv *device.Buffer) {
	r.sync(r.cc.Alltoall(send, recv, count, dtype(dt), "", r.s))
}

// Allgather is ncclAllGather.
func (r *CCLRank) Allgather(send *device.Buffer, count int, dt mpi.Datatype, recv *device.Buffer) {
	r.sync(r.cc.AllGather(send, recv, count, dtype(dt), r.s))
}

// Gather is the group send/recv gather.
func (r *CCLRank) Gather(send *device.Buffer, count int, dt mpi.Datatype, recv *device.Buffer, root int) {
	r.sync(r.cc.Gather(send, recv, count, dtype(dt), root, "", r.s))
}

// Scatter is the group send/recv scatter.
func (r *CCLRank) Scatter(send *device.Buffer, count int, dt mpi.Datatype, recv *device.Buffer, root int) {
	r.sync(r.cc.Scatter(send, recv, count, dtype(dt), root, "", r.s))
}

// sync panics on a failed launch, then waits for the rank's stream.
func (r *CCLRank) sync(err error) {
	if err != nil {
		panic(err)
	}
	r.s.Synchronize(r.p)
}

func dtype(dt mpi.Datatype) ccl.Datatype {
	cdt, ok := core.CCLDatatype(dt)
	if !ok {
		panic(fmt.Sprintf("world: datatype %v has no CCL equivalent", dt))
	}
	return cdt
}

func redop(op mpi.Op) ccl.RedOp {
	cop, ok := core.CCLOp(op)
	if !ok {
		panic(fmt.Sprintf("world: reduction %v has no CCL equivalent", op))
	}
	return cop
}
