package ccl

// Persistent collectives: the MPI-4 MPI_Allreduce_init analogue at the CCL
// layer. AllReduceInit performs everything a one-shot AllReduce pays per
// call — argument validation, plan (schedule family) selection and op-state
// setup — exactly once, and returns a handle whose Start/Wait execute the
// pre-built schedule, the same schedule code as the one-shot path, with
// zero steady-state heap allocations:
//
//   - the stream work item and its completion event are reused
//     (device.PersistentTask + sim.Event.Reset);
//   - the handle keeps its op state and scratch pipes for its lifetime (a
//     one-shot op borrows both from the communicator instead, see finish);
//   - segments are addressed by value (device.View) and their bounds
//     computed arithmetically, on this path and the one-shot path alike, so
//     no wave builds a view or a bounds table;
//   - asynchronous sends and the hierarchical leader's inter-node engine
//     run on the rank's resident workers (helperJob), which one-shot and
//     persistent work share and which take jobs as plain values: a handle
//     owns no process, and Init spawns none.
//
// Partitioned readiness (MPI_Pready analogue): a handle built with
// AllReduceInitPartitioned gates the schedule on per-partition readiness
// tokens, so an application can overlap filling the payload (backprop
// producing gradient partitions) with the collective. The hierarchical
// schedule maps partitions onto its pipeline chunks: the intra-node
// reduction of partition k starts as soon as Pready(k) lands, and the
// inter-node leader ring consumes partitions as they arrive. Flat schedules
// (tree, ring) run whole-payload and simply wait for all partitions.

import (
	"fmt"

	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

// partGate tracks which payload partitions the application has marked ready
// in the current wave. Readiness tokens buffer in the channel, so Pready
// may run before the schedule starts consuming, and in any order. Every
// process executing part of the handle's wave (stream task, worker,
// inter-node engine) shares it through its runCtx.
type partGate struct {
	n    int
	ch   *sim.Chan[int]
	sent []bool // producer side: partitions marked ready this wave
	seen []bool // consumer side: partitions the schedule has observed
	left int    // partitions not yet observed this wave
}

func newPartGate(k *sim.Kernel, n int) *partGate {
	return &partGate{n: n, ch: sim.NewChan[int](k, n),
		sent: make([]bool, n), seen: make([]bool, n), left: n}
}

func (g *partGate) reset() {
	for i := range g.sent {
		g.sent[i] = false
		g.seen[i] = false
	}
	g.left = g.n
}

// waitPart blocks until partition ck has been marked ready, recording any
// other partitions whose tokens arrive first.
func (rc *runCtx) waitPart(ck int) {
	g := rc.gate
	if g == nil || ck >= g.n {
		return
	}
	for !g.seen[ck] {
		i := g.ch.Recv(rc.p)
		if !g.seen[i] {
			g.seen[i] = true
			g.left--
		}
	}
}

// waitAllParts drains the gate until every partition has been marked ready:
// the whole-payload gate of the flat schedules, and the end-of-phase drain
// that keeps the channel empty across waves.
func (rc *runCtx) waitAllParts() {
	g := rc.gate
	if g == nil {
		return
	}
	for g.left > 0 {
		i := g.ch.Recv(rc.p)
		if !g.seen[i] {
			g.seen[i] = true
			g.left--
		}
	}
}

// stageChunk waits for chunk ck's partition and stages it from the send
// buffer into the accumulation buffer (see stage: the bytes move only when
// move is set). Only the partition-gated hierarchical schedule stages per
// chunk; everywhere else the gate is nil and the payload was staged whole
// before the first chunk.
func (rc *runCtx) stageChunk(a *opArgs, off, bytes int64, ck int, move bool) {
	if rc.gate == nil {
		return
	}
	rc.waitPart(ck)
	rc.stage(a.recv, a.send, off, bytes, move)
}

// persistShared is the cross-rank Init rendezvous record: the i-th
// persistent Init of every rank joins the same shared op state. Ranks must
// create persistent ops in the same order, like collectives themselves,
// and with the same arguments.
type persistShared struct {
	st     *opState
	count  int
	dt     Datatype
	op     RedOp
	parts  int
	joined int
}

// persistJoin runs the cross-rank Init rendezvous for the caller's next
// persistent op, validating argument agreement across ranks.
func (c *Comm) persistJoin(count int, dt Datatype, op RedOp, parts int) (*persistShared, int, error) {
	co := c.core
	id := c.pseq
	c.pseq++
	ps, ok := co.persist[id]
	if !ok {
		ps = &persistShared{
			st:    co.newOpState(-(id + 1)), // outside the one-shot sequence space
			count: count, dt: dt, op: op, parts: parts,
		}
		co.persist[id] = ps
	} else if ps.count != count || ps.dt != dt || ps.op != op || ps.parts != parts {
		return nil, 0, &Error{Backend: co.cfg.Name, Result: ErrInvalidArgument, Op: "allreduce-init",
			Rank: c.rank, Msg: fmt.Sprintf("persistent op #%d: mismatched arguments across ranks", id)}
	}
	ps.joined++
	if ps.joined == co.n {
		delete(co.persist, id) // rendezvous complete; state lives in the handles
	}
	return ps, id, nil
}

// newPersistentColl builds rank c's handle on the Init-joined state st and
// its reusable stream work item, which runs one wave per Start (see wave).
// A wave's failure verdict breaks the handle: the persistent op state is
// permanent, so the owner rebuilds after the membership layer shrinks or
// regrows.
func (c *Comm) newPersistentColl(s *device.Stream, st *opState, id int, op string, algo Algorithm,
	parts int, bytes int64, run func(rc *runCtx)) *PersistentColl {
	co := c.core
	var g *partGate
	if parts > 1 {
		g = newPartGate(co.fab.Kernel(), parts)
	}
	rc := &runCtx{co: co, st: st, rank: c.rank, gate: g}
	pc := &PersistentColl{c: c, st: st, gate: g, algo: algo, op: op, parts: parts}
	pc.task = s.NewPersistentTask(func(p *sim.Proc) {
		rc.p = p
		c.wave(rc, op, bytes, run)
	})
	return pc
}

// PersistentColl is one rank's handle on a persistent collective. The
// state machine is Init → (Start → [Pready…] → Wait)* → Free: Start
// launches the pre-built schedule on the stream without blocking, Pready
// marks payload partitions ready (partitioned handles only), Wait blocks
// until the wave completes and surfaces this rank's failure verdict.
// A handle whose wave was judged dead by the collective watchdog is broken
// permanently — every later wave fails with the same verdict — and the
// application must rebuild it on a repaired communicator (see the elastic
// training loop in internal/dl).
type PersistentColl struct {
	c     *Comm
	st    *opState
	task  *device.PersistentTask
	gate  *partGate // nil unless the handle is partitioned
	algo  Algorithm
	op    string // collective kind, for fault-hook probes and task names
	parts int
	ev    *sim.Event // completion event of the wave in flight
	freed bool
}

// AllReduceInit builds a persistent allreduce handle over the given
// buffers: plan selection (tree / flat ring / hierarchical, honoring
// SetAlgorithm and the backend's size split), validation, and scratch
// setup happen here, exactly once. Custom MSCCL schedules are not
// eligible for persistence. Every rank must call Init with consistent
// arguments and in the same handle order.
func (c *Comm) AllReduceInit(send, recv *device.Buffer, count int, dt Datatype, op RedOp, s *device.Stream) (*PersistentColl, error) {
	return c.AllReduceInitPartitioned(send, recv, count, dt, op, 1, s)
}

// AllReduceInitPartitioned is AllReduceInit with the send payload split
// into parts contiguous element ranges whose readiness the application
// signals per wave with Pready. parts is clamped to count; parts = 1
// behaves like AllReduceInit. Partition k is the elements [k·⌈count/parts⌉,
// min((k+1)·⌈count/parts⌉, count)), so trailing partitions may be empty.
func (c *Comm) AllReduceInitPartitioned(send, recv *device.Buffer, count int, dt Datatype, op RedOp, parts int, s *device.Stream) (*PersistentColl, error) {
	co := c.core
	if err := c.validateArgs("allreduce", send, recv, count, dt, &op, 0); err != nil {
		return nil, err
	}
	if parts < 1 {
		return nil, &Error{Backend: co.cfg.Name, Result: ErrInvalidArgument, Op: "allreduce-init",
			Rank: c.rank, Msg: "partitions must be >= 1"}
	}
	if parts > count {
		parts = count
	}
	if parts < 1 {
		parts = 1 // count == 0
	}

	// Init rendezvous: the i-th Init of every rank joins one shared state.
	ps, id, err := c.persistJoin(count, dt, op, parts)
	if err != nil {
		return nil, err
	}
	st := ps.st
	st.args[c.rank] = &opArgs{send: send, recv: recv, count: count} // owned by the handle, never pooled

	// Plan selection, once. Custom MSCCL schedules are not eligible.
	algo, run := c.allreduceSchedule(count, dt, op, parts, false)
	return c.newPersistentColl(s, st, id, "allreduce", algo, parts, int64(count)*int64(dt.Size()), run), nil
}

// Start launches one execution of the pre-built schedule on the stream
// without blocking. The previous execution must have been Waited. Fault
// hooks are probed per Start, exactly as per one-shot call: a fail-stopped
// rank's Start fails fast with ErrRankDead and never joins the wave its
// surviving peers will time out on.
func (pc *PersistentColl) Start() error {
	if err := pc.c.inject(pc.op); err != nil {
		return err
	}
	if g := pc.gate; g != nil {
		g.reset()
	}
	pc.ev = pc.task.Launch()
	return nil
}

// Pready marks partition k of the send buffer ready for the wave in flight
// (MPI_Pready). Valid only between Start and Wait, once per partition per
// wave; non-partitioned handles ignore it (the whole payload is implicitly
// ready at Start).
func (pc *PersistentColl) Pready(k int) {
	g := pc.gate
	if g == nil {
		return
	}
	if k < 0 || k >= g.n {
		panic(fmt.Sprintf("ccl: Pready(%d) on a %d-partition persistent op", k, g.n))
	}
	if g.sent[k] {
		panic(fmt.Sprintf("ccl: Pready(%d) called twice in one wave", k))
	}
	g.sent[k] = true
	if !g.ch.TrySend(k) {
		panic("ccl: partition gate overflow")
	}
}

// PreadyAll marks every partition of the wave in flight ready.
func (pc *PersistentColl) PreadyAll() {
	if pc.gate == nil {
		return
	}
	for k := 0; k < pc.parts; k++ {
		pc.Pready(k)
	}
}

// Wait blocks p until the launched execution completes and returns this
// rank's failure verdict for it (nil on success). A watchdog abort lets the
// stream task complete, so the verdict is only visible here — the same
// contract as Stream.Synchronize + TakeAsyncErr on the one-shot path.
func (pc *PersistentColl) Wait(p *sim.Proc) error {
	if pc.ev != nil {
		pc.ev.Wait(p)
	}
	return pc.c.TakeAsyncErr()
}

// Do runs one complete execution: Start, every partition ready, Wait. With
// pre-filled buffers it is bytewise equivalent to a one-shot AllReduce.
func (pc *PersistentColl) Do(p *sim.Proc) error {
	if err := pc.Start(); err != nil {
		return err
	}
	pc.PreadyAll()
	return pc.Wait(p)
}

// Parts reports the partition count (1 for a plain persistent op).
func (pc *PersistentColl) Parts() int { return pc.parts }

// PlannedAlgorithm reports the schedule family Init selected.
func (pc *PersistentColl) PlannedAlgorithm() Algorithm { return pc.algo }

// Free releases the handle's scratch pipes once every rank handle has
// called it, after the final Wait. A freed handle must not be Started
// again.
func (pc *PersistentColl) Free() {
	if pc.freed {
		return
	}
	pc.freed = true
	pc.st.done++
	if pc.st.done == pc.c.core.n {
		for _, pp := range pc.st.pipes {
			pp.free()
		}
		pc.st.pipes = nil
	}
}
