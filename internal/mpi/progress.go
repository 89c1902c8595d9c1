package mpi

import (
	"fmt"

	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

// progressPool is one world rank's free list of resident progress
// processes. Every nonblocking operation the rank starts — Isend and Irecv,
// and through them Sendrecv, Waitall fan-outs and persistent requests, plus
// the nonblocking collectives — runs on one of them. The pool grows on
// demand: a post takes an idle process or, when every one is busy, spawns
// another, so a rank may have any number of requests outstanding. The
// processes are created lazily, named once and reused for the job's life.
//
// A process with a job in hand counts as live and an idle one as a daemon
// (sim.Proc.SetDaemon): a job that blocks forever — an Isend nobody
// receives — is still a reported deadlock naming the process and its rank,
// while parked idle processes let Run end. Kernel.Close unwinds them.
//
// Virtual time is exactly that of spawning a process per operation. The
// first post spawns where the per-operation spawn stood, and the process
// takes the queued job as it starts. After each job the process fires the
// request's event and parks on its empty queue before any other process
// runs, as an exiting spawned process fired its Done event and dispatched.
// A later post finds it parked, and TrySend schedules its wake-up at the
// current instant with the next sequence number: the (time, seq) slot a
// Spawn would take. TestProgressReuseVirtualTime pins three back-to-back
// calls of each collective, since the calls after the first are where
// reuse could drift.
type progressPool struct {
	idle []*progressProc
	n    int // processes spawned; numbers the next one's name
}

// progressProc is one resident progress process and its job queue, which
// holds at most the one job of a busy process.
type progressProc struct {
	p    *sim.Proc
	jobs *sim.Chan[*Request]
}

// post runs r on one of the calling rank's progress processes. A rank's
// processes all live on the kernel of the rank's own process.
func (c *Comm) post(r *Request) {
	wr := c.WorldRank()
	pool := &c.ctx.job.progress[wr]
	if n := len(pool.idle); n > 0 {
		w := pool.idle[n-1]
		pool.idle = pool.idle[:n-1]
		w.p.SetDaemon(false)
		w.jobs.TrySend(r) // cannot fail: an idle process is parked on its empty queue
		return
	}
	k := c.proc.Kernel()
	w := &progressProc{jobs: sim.NewChan[*Request](k, 1)}
	w.jobs.TrySend(r)
	w.p = k.Spawn(fmt.Sprintf("mpi/r%d/progress%d", wr, pool.n), func(p *sim.Proc) {
		for {
			r := w.jobs.Recv(p)
			r.run(p)
			p.SetDaemon(true)
			pool.idle = append(pool.idle, w)
			r.done.Fire()
		}
	})
	pool.n++
}

// restart runs a completed (or never started) request's operation again,
// reusing the request and its event.
func (r *Request) restart() {
	r.done.Reset()
	r.status = Status{}
	r.c.post(r)
}

// run executes the request's operation on progress process p.
func (r *Request) run(p *sim.Proc) {
	c := r.c
	switch {
	case r.coll != nil:
		r.coll(&Comm{ctx: c.ctx, rank: c.rank, proc: p, dev: c.dev, collSeq: r.epoch})
	case r.send:
		c.sendOn(p, r.buf, r.count, r.dt, r.peer, r.tag)
	default:
		r.status = c.recvOn(p, r.buf, r.count, r.dt, r.peer, r.tag)
	}
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
