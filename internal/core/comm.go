package core

import (
	"fmt"

	"mpixccl/internal/ccl"
	"mpixccl/internal/ccl/comp"
	"mpixccl/internal/device"
	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
)

// Comm is one rank's xCCL view of an MPI communicator: the same MPI
// collective API, with transparent CCL dispatch underneath. Obtain one via
// Runtime.Wrap or Runtime.Run; use it only from the owning rank's process.
type Comm struct {
	rt  *Runtime
	mpi *mpi.Comm
	// failure is the first verdict this rank observed on the communicator
	// (first verdict wins): an ErrRankDead-wrapping CCL error (its own
	// crash, a peer's from the watchdog, or a heartbeat-confirmed peer), an
	// ErrUnreachable-wrapping one (a peer across a partition cut),
	// ErrCommRevoked (revoked context or dead handle), ErrStaleEpoch (a
	// Grow superseded the context) or ErrFenced (this rank lost a quorum
	// vote). Collectives on a failed handle are no-ops; the application
	// inspects Failure and recovers (Revoke and Shrink, Grow, Rejoin) or
	// exits (Dead).
	failure error
	// dead marks the handle of a rank that fail-stopped itself: its own
	// CCL call failed fast with its own rank named. A dead rank must not
	// call Shrink — it is the rank the survivors are agreeing to exclude.
	dead bool
}

// MPI exposes the underlying MPI communicator (for p2p and escape hatches).
func (x *Comm) MPI() *mpi.Comm { return x.mpi }

// Rank returns the communicator-local rank.
func (x *Comm) Rank() int { return x.mpi.Rank() }

// Size returns the communicator size.
func (x *Comm) Size() int { return x.mpi.Size() }

// Device returns the rank's accelerator.
func (x *Comm) Device() *device.Device { return x.mpi.Device() }

// Proc returns the rank's simulation process.
func (x *Comm) Proc() *sim.Proc { return x.mpi.Proc() }

// Runtime returns the owning xCCL runtime.
func (x *Comm) Runtime() *Runtime { return x.rt }

// cclComm returns (creating and caching on first use) this rank's CCL
// communicator mirroring the MPI communicator — the communicator
// maintenance box of Fig 2. Creation mirrors the real flow where the MPI
// communicator bootstraps the CCL unique id: every rank rendezvouses on
// the Runtime.pending entry, the last distinct rank performs the creation
// (ncclCommInitAll), and all waiters observe the same communicators or
// the same error. A failed creation is not cached — the next collective
// wave rendezvouses again, so a transient comm-init fault heals.
func (x *Comm) cclComm() (*ccl.Comm, error) {
	rt := x.rt
	key := x.mpi.ContextID()
	if comms, ok := rt.cache[key]; ok {
		return comms[x.Rank()], nil
	}
	ci, ok := rt.pending[key]
	if !ok {
		ci = &commInit{
			seen:  make(map[int]bool),
			ready: sim.NewEvent(x.mpi.Proc().Kernel()),
		}
		rt.pending[key] = ci
	}
	// Count distinct ranks, not arrivals: concurrent nonblocking
	// collectives may bring the same rank here twice before creation.
	if !ci.seen[x.Rank()] {
		ci.seen[x.Rank()] = true
		if len(ci.seen) == x.Size() {
			devs := make([]*device.Device, x.Size())
			for r := range devs {
				devs[r] = x.mpi.RankDevice(r)
			}
			comms, err := NewBackendComms(rt.kind, x.mpi.Job().Fabric(), devs)
			if err != nil {
				ci.err = err
			} else {
				ci.comms = comms
				rt.cache[key] = comms
			}
			delete(rt.pending, key)
			ci.ready.Fire()
		}
	}
	// A fail-stopped peer never reaches the rendezvous, so with the
	// watchdog armed the wait is bounded like any other collective.
	if wd := rt.policy.WatchdogTimeout; !ci.ready.WaitTimeout(x.mpi.Proc(), wd) {
		return nil, &ccl.Error{Backend: string(rt.kind), Result: ccl.ErrRankDead,
			Op: "comminit", Rank: -1,
			Msg: fmt.Sprintf("watchdog fired after %v waiting for peers at communicator creation", wd)}
	}
	if ci.err != nil {
		return nil, ci.err
	}
	comms := ci.comms
	if comms[0].RankIDs() == nil {
		// Fault rules and failure verdicts name world ranks; a shrunk
		// communicator's CCL handles are locally renumbered, so give them
		// the world identities to probe and report with.
		ids := make([]int, x.Size())
		for r := range ids {
			ids[r] = x.mpi.WorldRankOf(r)
		}
		comms[0].SetRankIDs(ids)
	}
	return comms[x.Rank()], nil
}

// decision is the outcome of the dispatch logic for one call.
type decision struct {
	useCCL bool
	dt     ccl.Datatype
	op     ccl.RedOp
	// algo/chunk carry the tuned band's forced CCL schedule family
	// (ccl.AlgoAuto = the backend's built-in split) and hierarchical
	// pipeline chunk.
	algo  ccl.Algorithm
	chunk int64
	// plan, when non-empty, routes a synthesized collective through the
	// compiled executor with this strategy key ("auto" = cost-model
	// search). Empty keeps the group send-recv loop.
	plan string
}

// decide runs the §3.1–§3.4 checks: device-buffer identify, datatype and
// reduction support, then the mode policy (hybrid tuning table lookup).
// bufs are the user buffers that must live on the accelerator for a CCL
// dispatch.
func (x *Comm) decide(op OpKind, bytes int64, dt mpi.Datatype, rop *mpi.Op, bufs ...*device.Buffer) decision {
	rt := x.rt
	cfg := rt.cfg
	if rt.opts.Mode == PureMPI || cfg == nil {
		return decision{}
	}
	fallback := func(cause fallbackCause) decision {
		rt.emit(event{kind: evFallback, op: op, cause: cause})
		return decision{}
	}
	if !cfg.SupportsKind(x.Device().Kind) {
		return fallback(causeDevice)
	}
	for _, b := range bufs {
		if b != nil && !b.OnDevice() {
			return fallback(causeHostBuffer)
		}
	}
	cdt, ok := CCLDatatype(dt)
	if !ok || !cfg.Datatypes[cdt] {
		return fallback(causeDatatype)
	}
	var cop ccl.RedOp
	if rop != nil {
		cop, ok = CCLOp(*rop)
		if !ok || !cfg.Ops[cop] {
			return fallback(causeOp)
		}
	}
	d := decision{useCCL: true, dt: cdt, op: cop}
	if rt.opts.Mode == Hybrid {
		th, hit := rt.table.Choice(op, bytes)
		rt.emit(event{kind: evTuning, op: op, path: th.Path, hit: hit, algo: th.Algo})
		if th.Path == PathMPI {
			return decision{}
		}
		// Only the compiled ops read d.plan; ParseTable rejects a plan key
		// on a built-in op, whose family the band forces through Algo.
		d.algo, d.chunk, d.plan = th.Algo, th.ChunkBytes, th.Plan
	}
	if d.plan == "" && rt.opts.Compile && comp.Compiles(string(op)) {
		d.plan = "auto"
	}
	return d
}

// runCCL executes fn against the cached CCL communicator and this rank's
// stream, blocking until the enqueued work completes (MPI semantics). A
// CCL error falls back to nothing here — the caller handles it (and may
// retry: ccl discards a failed call's open group, so the retry starts
// clean).
func (x *Comm) runCCL(fn func(cc *ccl.Comm, s *device.Stream) error) error {
	cc, err := x.cclComm()
	if err != nil {
		return err
	}
	x.syncEnv(cc)
	s := x.rt.stream(x.mpi.WorldRank(), x.Device())
	if err := fn(cc, s); err != nil {
		return err
	}
	s.Synchronize(x.mpi.Proc())
	// A watchdog abort lets the stream task complete, so synchronization
	// returns normally and the verdict is only visible here.
	if err := cc.TakeAsyncErr(); err != nil {
		return err
	}
	return nil
}

// syncEnv brings cc up to date with the environment before each operation
// (one-shot call or persistent wave): the watchdog deadline may have been
// re-armed, and a fabric link-degradation window may have opened or closed
// since its last one. While a window is active cc drives fewer fabric
// channels, so concurrent flows keep a fair share of the shrunken pool.
func (x *Comm) syncEnv(cc *ccl.Comm) {
	if wd := x.rt.policy.WatchdogTimeout; wd != cc.Watchdog() {
		cc.SetWatchdog(wd)
	}
	if lf, ok := x.mpi.Job().Fabric().DegradedNow(x.mpi.Proc().Now()); ok {
		budget := lf.ChannelCap
		if budget <= 0 {
			budget = (cc.Config().Channels + 1) / 2
		}
		cc.SetChannelCap(budget)
	} else if cc.ChannelCap() != 0 {
		cc.SetChannelCap(0)
	}
}
