package mpi

import (
	"fmt"

	"mpixccl/internal/device"
)

// The vector ("v") collectives and scan family, completing the standard
// MPI collective surface on top of the same matching engine.

// Gatherv collects counts[r] elements from rank r into root's recvBuf at
// element offset displs[r]. recvBuf, counts, displs are significant only
// at root.
func (c *Comm) Gatherv(sendBuf *device.Buffer, count int, dt Datatype, recvBuf *device.Buffer, counts, displs []int, root int) {
	c.enterColl()
	tag := tagOf(c.nextEpoch(), tagGather)
	esz := int64(dt.Size())
	if c.rank == root {
		if counts[root] != count {
			panic(fmt.Sprintf("mpi: gatherv root count %d != counts[%d]=%d", count, root, counts[root]))
		}
		copy(recvBuf.Bytes()[int64(displs[root])*esz:int64(displs[root]+count)*esz], sendBuf.Bytes()[:int64(count)*esz])
		c.proc.Sleep(c.dev.CopyTime(int64(count) * esz))
		reqs := make([]*Request, 0, c.Size()-1)
		for r := 0; r < c.Size(); r++ {
			if r == root || counts[r] == 0 {
				continue
			}
			off, ln := int64(displs[r])*esz, int64(counts[r])*esz
			reqs = append(reqs, c.Irecv(recvBuf.Slice(off, ln), counts[r], dt, r, tag))
		}
		c.Waitall(reqs)
		return
	}
	if count > 0 {
		c.Send(sendBuf, count, dt, root, tag)
	}
}

// Scatterv distributes counts[r] elements from root's sendBuf at offset
// displs[r] to rank r's recvBuf.
func (c *Comm) Scatterv(sendBuf *device.Buffer, counts, displs []int, dt Datatype, recvBuf *device.Buffer, count int, root int) {
	c.enterColl()
	tag := tagOf(c.nextEpoch(), tagScatter)
	esz := int64(dt.Size())
	if c.rank == root {
		if counts[root] != count {
			panic(fmt.Sprintf("mpi: scatterv root count %d != counts[%d]=%d", count, root, counts[root]))
		}
		reqs := make([]*Request, 0, c.Size()-1)
		for r := 0; r < c.Size(); r++ {
			off, ln := int64(displs[r])*esz, int64(counts[r])*esz
			if r == root {
				copy(recvBuf.Bytes()[:ln], sendBuf.Bytes()[off:off+ln])
				c.proc.Sleep(c.dev.CopyTime(ln))
				continue
			}
			if counts[r] == 0 {
				continue
			}
			reqs = append(reqs, c.Isend(sendBuf.Slice(off, ln), counts[r], dt, r, tag))
		}
		c.Waitall(reqs)
		return
	}
	if count > 0 {
		c.Recv(recvBuf, count, dt, root, tag)
	}
}

// Scan computes the inclusive prefix reduction: rank r's recvBuf holds
// op(sendBuf_0, …, sendBuf_r). Linear-chain algorithm, as MPICH uses for
// short communicators.
func (c *Comm) Scan(sendBuf, recvBuf *device.Buffer, count int, dt Datatype, op Op) {
	c.enterColl()
	tag := tagOf(c.nextEpoch(), tagReduce)
	bytes := int64(count) * int64(dt.Size())
	copy(recvBuf.Bytes()[:bytes], sendBuf.Bytes()[:bytes])
	if c.Size() == 1 || count == 0 {
		return
	}
	if c.rank > 0 {
		in := c.tmp(bytes)
		defer in.Free()
		c.Recv(in, count, dt, c.rank-1, tag)
		c.reduceLocal(op, dt, recvBuf, in, count)
	}
	if c.rank < c.Size()-1 {
		c.Send(recvBuf, count, dt, c.rank+1, tag)
	}
}

// Exscan computes the exclusive prefix reduction: rank r's recvBuf holds
// op(sendBuf_0, …, sendBuf_{r−1}); rank 0's recvBuf is untouched, per the
// MPI standard.
func (c *Comm) Exscan(sendBuf, recvBuf *device.Buffer, count int, dt Datatype, op Op) {
	c.enterColl()
	tag := tagOf(c.nextEpoch(), tagReduce)
	bytes := int64(count) * int64(dt.Size())
	if c.Size() == 1 || count == 0 {
		return
	}
	// Each rank forwards op(prefix, own) down the chain; what it receives
	// is its exclusive prefix.
	acc := c.tmp(bytes)
	defer acc.Free()
	copy(acc.Bytes(), sendBuf.Bytes()[:bytes])
	if c.rank > 0 {
		c.Recv(recvBuf, count, dt, c.rank-1, tag)
		Reduce(op, dt, acc.Bytes(), recvBuf.Bytes(), count)
		c.proc.Sleep(c.dev.ReduceTime(bytes))
	}
	if c.rank < c.Size()-1 {
		c.Send(acc, count, dt, c.rank+1, tag)
	}
}

// Nonblocking collectives at the MPI level: each reserves its sequence slot
// at call time and runs the blocking algorithm on a progress process, per
// the MPI-3 nonblocking-collective matching rules.

// Icoll starts fn as a nonblocking collective: it reserves the
// communicator's next collective sequence slot now, at issue time, and
// runs fn on one of the rank's progress processes (see post), passing a
// view of the communicator bound to that process and slot. fn must issue
// exactly one collective through the view. Complete it with Wait.
func (c *Comm) Icoll(fn func(ac *Comm)) *Request {
	r := &Request{c: c, coll: fn, epoch: c.nextEpoch()}
	c.post(r)
	return r
}

// Ibcast is the nonblocking MPI_Ibcast.
func (c *Comm) Ibcast(buf *device.Buffer, count int, dt Datatype, root int) *Request {
	return c.Icoll(func(ac *Comm) { ac.Bcast(buf, count, dt, root) })
}

// Iallreduce is the nonblocking MPI_Iallreduce.
func (c *Comm) Iallreduce(sendBuf, recvBuf *device.Buffer, count int, dt Datatype, op Op) *Request {
	return c.Icoll(func(ac *Comm) { ac.Allreduce(sendBuf, recvBuf, count, dt, op) })
}

// Ireduce is the nonblocking MPI_Ireduce.
func (c *Comm) Ireduce(sendBuf, recvBuf *device.Buffer, count int, dt Datatype, op Op, root int) *Request {
	return c.Icoll(func(ac *Comm) { ac.Reduce(sendBuf, recvBuf, count, dt, op, root) })
}

// Iallgather is the nonblocking MPI_Iallgather.
func (c *Comm) Iallgather(sendBuf *device.Buffer, count int, dt Datatype, recvBuf *device.Buffer) *Request {
	return c.Icoll(func(ac *Comm) { ac.Allgather(sendBuf, count, dt, recvBuf) })
}

// Ialltoall is the nonblocking MPI_Ialltoall.
func (c *Comm) Ialltoall(sendBuf *device.Buffer, count int, dt Datatype, recvBuf *device.Buffer) *Request {
	return c.Icoll(func(ac *Comm) { ac.Alltoall(sendBuf, count, dt, recvBuf) })
}

// Ibarrier is the nonblocking MPI_Ibarrier.
func (c *Comm) Ibarrier() *Request {
	return c.Icoll(func(ac *Comm) { ac.Barrier() })
}
