package mpi

import (
	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

// post runs r on one of the calling rank's resident progress processes
// (Job.progress). Every nonblocking operation the rank starts — Isend and
// Irecv, and through them Sendrecv, Waitall fan-outs and persistent
// requests, plus the nonblocking collectives — runs there, at the virtual
// time a process spawned per operation would (see sim.Pool).
// TestProgressReuseVirtualTime pins three back-to-back calls of each
// collective, since the calls after the first are where reuse could drift.
func (c *Comm) post(r *Request) {
	c.ctx.job.progress[c.WorldRank()].Post(c.proc.Kernel(), r)
}

// restart runs a completed (or never started) request's operation again,
// reusing the request and its event.
func (r *Request) restart() {
	r.done.Reset()
	r.status = Status{}
	r.c.post(r)
}

// runRequest is a progress process's job: it executes the request's
// operation on p and fires its completion.
func runRequest(p *sim.Proc, r *Request) {
	c := r.c
	switch {
	case r.coll != nil:
		r.coll(&Comm{ctx: c.ctx, rank: c.rank, proc: p, dev: c.dev, collSeq: r.epoch})
	case r.send:
		c.sendOn(p, r.buf, r.count, r.dt, r.peer, r.tag)
	default:
		r.status = c.recvOn(p, r.buf, r.count, r.dt, r.peer, r.tag)
	}
	r.done.Fire()
}

// PersistentRequest is an initialized-but-inactive point-to-point operation
// (MPI_Send_init / MPI_Recv_init): Start launches it, Wait completes it,
// and it can be started again. Every start reuses the one request.
type PersistentRequest struct {
	req    Request
	active bool
}

// SendInit creates a persistent send (MPI_Send_init).
func (c *Comm) SendInit(buf *device.Buffer, count int, dt Datatype, dest, tag int) *PersistentRequest {
	return &PersistentRequest{req: Request{c: c, send: true, buf: buf, count: count, dt: dt, peer: dest, tag: tag}}
}

// RecvInit creates a persistent receive (MPI_Recv_init).
func (c *Comm) RecvInit(buf *device.Buffer, count int, dt Datatype, src, tag int) *PersistentRequest {
	return &PersistentRequest{req: Request{c: c, buf: buf, count: count, dt: dt, peer: src, tag: tag}}
}

// Start launches the operation (MPI_Start). Starting an already-active
// request panics, per the standard.
func (pr *PersistentRequest) Start() {
	if pr.active {
		panic("mpi: Start on active persistent request")
	}
	pr.active = true
	pr.req.restart()
}

// Wait completes the active operation and re-arms the request.
func (pr *PersistentRequest) Wait() Status {
	if !pr.active {
		panic("mpi: Wait on inactive persistent request")
	}
	st := pr.req.c.Wait(&pr.req)
	pr.active = false
	return st
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
