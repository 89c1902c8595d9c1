package core

// Persistent collectives at the dispatch layer: the MPI-4
// MPI_Allreduce_init analogue over the xCCL abstraction. AllReduceInit
// pays the whole per-call dispatch pipeline exactly once — the admission
// check, the §3.1–§3.4 decision (device identify, datatype/op mapping,
// hybrid tuning-table lookup), the circuit-breaker consult, CCL
// communicator rendezvous, algorithm forcing, and the CCL layer's own
// plan/scratch/helper setup — and returns a handle whose steady-state
// Start/Wait run the pre-built schedule with zero heap allocations.
//
// Per-wave semantics are run()'s in collectives.go — Start admits the wave
// and Wait ends it through the same completion tail: a fail-stop or
// partition verdict is surfaced through Failure() for recovery and
// permanently breaks the handle; any other CCL failure
// feeds the circuit breaker and falls the wave back to the blocking MPI
// path. The breaker is consulted at Init, not per Start — a per-wave
// consult would desynchronize the breaker's wave bookkeeping with the
// one-shot collectives sharing the communicator.

import (
	"errors"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/device"
	"mpixccl/internal/mpi"
)

// ErrOpFreed reports a Start or Wait on a handle already released by Free.
// The wave did not run.
var ErrOpFreed = errors.New("xccl: persistent op used after Free")

// ErrOpDoubleFree reports a second Free of the same handle. The first
// Free already released the CCL-layer scratch; the second did nothing.
var ErrOpDoubleFree = errors.New("xccl: persistent op freed twice")

// PersistentOp is one rank's handle on a persistent allreduce. The state
// machine is Init → (Start → [Pready…] →
// Wait)* → Free:
//
//	Start   launches the pre-built schedule without blocking
//	Pready  marks one send-payload partition ready (partitioned handles)
//	Wait    blocks until the wave completes, handling fallback/failure
//	Do      = Start + PreadyAll + Wait, bytewise ≡ the one-shot call
//
// A handle is bound to the communicator it was built on: after a Shrink
// the application must Free it and Init a fresh handle on the survivor
// communicator (see dl.TrainElastic).
type PersistentOp struct {
	x          *Comm
	kind       OpKind
	send, recv *device.Buffer
	count      int
	dt         mpi.Datatype
	op         mpi.Op
	bytes      int64
	parts      int
	fb         func() // the blocking MPI algorithm, for demoted waves

	pc *ccl.PersistentColl // nil when the plan decided the MPI path
	cc *ccl.Comm           // the communicator pc was built on

	start    time.Duration // virtual start of the wave in flight
	inflight bool
	demoted  bool // this wave fell back to MPI at Start
	freed    bool
}

// AllReduceInit builds a persistent allreduce handle: the dispatch
// decision, breaker consult, CCL communicator rendezvous, and schedule
// construction run here, exactly once. Every rank of the communicator
// must call it with consistent arguments and in the same handle order
// (like collectives themselves). Handles whose decision chose the MPI
// path (pure-MPI mode, unsupported datatype/op, host buffers, tuning
// table, open breaker) are still valid: their waves run the blocking MPI
// algorithm in Wait. Init on a handle the admission check rejects returns
// that verdict (also recorded in Failure) and no handle, exactly as a
// one-shot collective would fail.
func (x *Comm) AllReduceInit(send, recv *device.Buffer, count int, dt mpi.Datatype, op mpi.Op) (*PersistentOp, error) {
	return x.AllReduceInitPartitioned(send, recv, count, dt, op, 1)
}

// AllReduceInitPartitioned is AllReduceInit with the send payload split
// into parts contiguous element ranges whose readiness the application
// signals per wave with Pready (MPI_Pready), overlapping payload
// production with the collective. parts is clamped to count; parts = 1
// behaves like AllReduceInit. Pready(k) covers the elements
// [k·⌈count/parts⌉, min((k+1)·⌈count/parts⌉, count)), so trailing
// partitions may be empty. MPI-path handles ignore partitioning (the
// blocking MPI algorithm needs the whole payload).
func (x *Comm) AllReduceInitPartitioned(send, recv *device.Buffer, count int, dt mpi.Datatype, op mpi.Op, parts int) (*PersistentOp, error) {
	if err := x.admit(OpAllreduce); err != nil {
		return nil, err
	}
	bytes := int64(count) * int64(dt.Size())
	po := &PersistentOp{
		x: x, kind: OpAllreduce, send: send, recv: recv,
		count: count, dt: dt, op: op, bytes: bytes, parts: parts,
		fb: func() { x.mpi.Allreduce(send, recv, count, dt, op) },
	}
	d := x.decide(OpAllreduce, bytes, dt, &op, send, recv)
	return x.persistInit(po, d, func(cc *ccl.Comm, s *device.Stream) (*ccl.PersistentColl, error) {
		return cc.AllReduceInitPartitioned(send, recv, count, d.dt, d.op, parts, s)
	})
}

// persistInit finishes handle construction: breaker consult, CCL communicator rendezvous, algorithm forcing, and the
// CCL layer's schedule build.
func (x *Comm) persistInit(po *PersistentOp, d decision,
	ccInit func(cc *ccl.Comm, s *device.Stream) (*ccl.PersistentColl, error)) (*PersistentOp, error) {
	// An open breaker at plan time demotes the handle to the MPI path for
	// its whole lifetime, exactly as one one-shot call would be for one
	// wave. Rebuild the handle after the breaker closes to return to the
	// CCL.
	if !d.useCCL || !x.rt.allowCCL(x, po.kind) {
		return po, nil
	}
	cc, err := x.cclComm()
	if err != nil {
		// Communicator creation failures behave like any CCL error:
		// breaker feedback, a ccl_error fallback, MPI-path handle.
		x.rt.breakerFailure(x, po.kind)
		return po, nil
	}
	cc.SetAlgorithm(d.algo, d.chunk)
	s := x.rt.stream(x.mpi.WorldRank(), x.Device())
	pc, err := ccInit(cc, s)
	if err != nil {
		// Init-time CCL errors are argument/plan errors, not runtime
		// failures: surface them instead of silently demoting.
		return nil, err
	}
	po.pc = pc
	po.cc = cc
	return po, nil
}

// Start launches one execution of the pre-built schedule without
// blocking. Fault hooks are probed here, per wave, exactly as per
// one-shot call: a fail-stopped rank's Start fails fast and records the
// verdict on the handle's communicator. Any other injected failure
// demotes just this wave to the MPI path (executed in Wait) with breaker
// feedback. Start on a handle the admission check rejects no-ops with
// that verdict; Start on a freed handle no-ops with ErrOpFreed.
func (po *PersistentOp) Start() error {
	x := po.x
	if po.freed {
		return ErrOpFreed
	}
	if err := x.admit(po.kind); err != nil {
		return err
	}
	po.start = x.mpi.Proc().Now()
	po.inflight = true
	po.demoted = false
	if po.pc == nil {
		return nil
	}
	x.syncEnv(po.cc)
	if err := po.pc.Start(); err != nil {
		if x.noteVerdict(po.kind, err) {
			po.inflight = false
			return err
		}
		x.rt.breakerFailure(x, po.kind)
		po.demoted = true
	}
	return nil
}

// Pready marks partition k of the send buffer ready for the wave in
// flight (MPI_Pready). Valid between Start and Wait, once per partition
// per wave. Non-partitioned and MPI-path handles ignore it.
func (po *PersistentOp) Pready(k int) {
	if po.freed || po.pc == nil || po.demoted {
		return
	}
	po.pc.Pready(k)
}

// PreadyAll marks every partition of the wave in flight ready.
func (po *PersistentOp) PreadyAll() {
	if po.freed || po.pc == nil || po.demoted {
		return
	}
	po.pc.PreadyAll()
}

// Wait blocks until the launched wave completes, with run()'s full error
// handling: a fail-stop or partition verdict surfaces through Failure()
// and returns without a trace record (the rank abandoned the operation);
// any other CCL failure feeds the breaker and re-executes the wave on the
// blocking MPI path; success credits the breaker. Every completed wave
// emits the same op event as a one-shot call.
func (po *PersistentOp) Wait() error {
	x := po.x
	if po.freed {
		return ErrOpFreed
	}
	if !po.inflight {
		return x.failure
	}
	po.inflight = false
	usedCCL := po.pc != nil && !po.demoted
	var err error
	if usedCCL {
		err = po.pc.Wait(x.mpi.Proc())
	}
	return x.complete(po.kind, po.bytes, po.start, usedCCL, err, po.fb)
}

// Do runs one complete wave: Start, every partition ready, Wait. With
// pre-filled buffers it is bytewise equivalent to one-shot Allreduce.
func (po *PersistentOp) Do() error {
	if err := po.Start(); err != nil {
		return err
	}
	po.PreadyAll()
	return po.Wait()
}

// Parts reports the partition count (1 for a plain persistent op).
func (po *PersistentOp) Parts() int { return po.parts }

// PlannedAlgorithm reports the CCL schedule family Init selected, or ""
// for MPI-path handles: a handle runs on the CCL path exactly when this is
// not "".
func (po *PersistentOp) PlannedAlgorithm() string {
	if po.pc == nil {
		return ""
	}
	return po.pc.PlannedAlgorithm().String()
}

// Free releases the handle's CCL-layer scratch once every rank handle
// has called it, after the final Wait. Freeing twice returns
// ErrOpDoubleFree (the handle stays freed; nothing is released twice),
// and a freed handle rejects Start and Wait with ErrOpFreed.
func (po *PersistentOp) Free() error {
	if po.freed {
		return ErrOpDoubleFree
	}
	po.freed = true
	if po.pc != nil {
		po.pc.Free()
	}
	return nil
}
