package mpi

import (
	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

// Completion-testing extensions to the request API: MPI_Test, MPI_Waitany,
// and MPI_Testall semantics over the virtual-time events.

// Test reports without blocking whether the operation has completed,
// returning its status when it has (MPI_Test).
func (c *Comm) Test(r *Request) (bool, Status) {
	if !r.done.Fired() {
		return false, Status{}
	}
	return true, r.status
}

// Testall reports whether every request has completed (MPI_Testall).
func (c *Comm) Testall(reqs []*Request) bool {
	for _, r := range reqs {
		if !r.done.Fired() {
			return false
		}
	}
	return true
}

// Waitany blocks until at least one request completes and returns its index
// and status (MPI_Waitany). The remaining requests stay in flight.
func (c *Comm) Waitany(reqs []*Request) (int, Status) {
	if len(reqs) == 0 {
		return -1, Status{}
	}
	events := make([]*sim.Event, len(reqs))
	for i, r := range reqs {
		events[i] = &r.done
	}
	idx := sim.WaitAny(c.proc, events...)
	_, st := c.Test(reqs[idx])
	return idx, st
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
