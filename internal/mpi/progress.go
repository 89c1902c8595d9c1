package mpi

import (
	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

// post starts r. An eager send runs as kernel callbacks (startEager): it
// never waits on its receiver, so it needs no process. Every other
// nonblocking operation the rank starts — a rendezvous Isend, every Irecv,
// and the nonblocking collectives — runs on one of the rank's resident
// progress processes (Job.progress), at the virtual time a process spawned
// per operation would (see sim.Pool); those wait on a peer, and one that
// waits forever must leave a live process for the deadlock report to name.
// TestProgressReuseVirtualTime pins three back-to-back calls of each
// collective, since the calls after the first are where reuse could drift.
func (c *Comm) post(r *Request) {
	if r.send && c.sendBytes(r.buf, r.count, r.dt, r.peer) <= c.ctx.job.profile.EagerThreshold {
		c.startEager(r)
		return
	}
	c.ctx.job.progress[c.WorldRank()].Post(c.proc.Kernel(), r)
}

// start arms r for one point-to-point operation on c and runs it (see
// post). A completed request may start again: it reuses its event.
func (r *Request) start(c *Comm, send bool, buf device.View, count int, dt Datatype, peer, tag int) {
	r.c, r.send, r.buf, r.count, r.dt, r.peer, r.tag = c, send, buf, count, dt, peer, tag
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
		o := c.getSendOp(r.buf, r.count, r.dt, r.peer, r.tag)
		p.Drive(o)
		o.put()
	default:
		r.status = c.recvOn(p, r.buf, r.count, r.dt, r.peer, r.tag, nil)
	}
	r.done.Fire()
}

// Nonblocking collectives at the MPI level: each reserves its sequence slot
// at call time, per the MPI-3 nonblocking-collective matching rules, and a
// progress process drives the collective's program (see collProg).

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

// Iallgather is the nonblocking MPI_Iallgather.
func (c *Comm) Iallgather(sendBuf *device.Buffer, count int, dt Datatype, recvBuf *device.Buffer) *Request {
	return c.Icoll(func(ac *Comm) { ac.Allgather(sendBuf, count, dt, recvBuf) })
}

// Ialltoall is the nonblocking MPI_Ialltoall.
func (c *Comm) Ialltoall(sendBuf *device.Buffer, count int, dt Datatype, recvBuf *device.Buffer) *Request {
	return c.Icoll(func(ac *Comm) { ac.Alltoall(sendBuf, count, dt, recvBuf) })
}
