package ccl

import (
	"errors"
	"fmt"
	"time"

	"mpixccl/internal/ccl/comp"
	"mpixccl/internal/device"
	"mpixccl/internal/elem"
	"mpixccl/internal/fabric"
	"mpixccl/internal/metrics"
	"mpixccl/internal/sim"
)

// core is the state shared by all rank handles of one communicator.
type core struct {
	cfg      Config
	fab      *fabric.Fabric
	devs     []*device.Device
	n        int
	faults   Injector        // nil = no injection
	failStop fabric.FailStop // nil = no fail-stop crashes
	watchdog time.Duration   // 0 = collective watchdog disarmed
	rankIDs  []int           // global identities for fault scoping; nil = local ranks
	// ranks lists every rank in order, the group the flat schedules run
	// over. Its capacity holds the order twice, so ranks[root:root+n] is
	// the group rotated to root, a flat Reduce's.
	ranks []int

	ops     map[int]*opState
	p2pPost map[[2]int]*sim.Chan[*p2pSlot] // receiver-posted buffers per (src,dst)
	algos   []*Algo                        // registered custom schedules
	chanCap int                            // 0 = no cap; see SetChannelCap

	// Capability sets flattened from cfg's maps at init: validate runs on
	// every operation of every rank, so the per-call map lookups are cached.
	dtOK [int(Float64) + 1]bool
	opOK [int(Min) + 1]bool

	// workers[r] is rank r's pool of resident worker processes: they carry
	// its asynchronous sends, compiled-plan lanes, hierarchical leader
	// engines and group sends (see helperJob), for one-shot, persistent and
	// compiled work alike. engines holds each leader stream process's
	// engine state (see hierEngine).
	workers []*sim.Pool[helperJob]
	engines map[*sim.Proc]*hierEngine

	hierCache *hierPlan // lazily built node hierarchy (see hier.go)

	// Compiled-plan caches (see compiled.go): the cost-model topology, the
	// plans per (op, block, root, key) call shape, and the converted MSCCL
	// schedules per (algo, count, element size). Lazily built; safe without
	// locks under the cooperative scheduler.
	compTopoCache *comp.Topo
	compPlans     map[compPlanKey]*comp.Plan
	customPlans   map[customPlanKey]*comp.Plan

	// persist holds in-flight persistent-op Init rendezvous, keyed by each
	// rank's persistent-op ordinal (ranks must Init handles in the same
	// order; see persistent.go).
	persist map[int]*persistShared

	// Metric instruments resolved once, from the fabric's registry, when
	// the communicator is built (see resolveMetrics). The counting paths
	// below run per launch and per fabric transfer; resolving instruments
	// there would build a label map per call. All nil (method no-ops)
	// when the fabric carries no registry.
	mLaunchColl  *metrics.Counter
	mLaunchP2P   *metrics.Counter
	mLaunchGroup *metrics.Counter
	mGroupCalls  *metrics.Counter
	mGroupFused  *metrics.Counter
	mXferBytes   *metrics.Counter

	// Free lists for the per-collective hot-path objects. Every collective
	// allocates one opArgs per rank and one runCtx per stream task;
	// recycling them through the shared core keeps the enqueue path's
	// steady-state allocation rate flat. Safe without locks: sim procs are
	// serialized by the scheduler token.
	argsFree []*opArgs
	ctxFree  []*runCtx

	// opFree holds the op states of finished, clean collectives, and
	// idlePipes each rank pair's scratch pipes that no op holds (a stack
	// linked through pipe.next). The next op reuses both, so a one-shot
	// collective in steady state builds neither (see join and finish).
	opFree    []*opState
	idlePipes map[[2]int]*pipe

	// fuse holds the scratch blocks of the owner passes, the ring
	// allreduce's pairwise chain (see ownerReduce) and the tree fan-in's
	// levels (see fanIn), which elem makes at first need, and chain a
	// pass's ordered list of member segments. One of each serves every
	// rank: a pass never yields, so no two run at once.
	fuse  [][]byte
	chain [][]byte
}

// newArgs returns a recycled (or fresh) opArgs holding the call arguments.
func (co *core) newArgs(send, recv *device.Buffer, count, root int) *opArgs {
	if n := len(co.argsFree); n > 0 {
		a := co.argsFree[n-1]
		co.argsFree = co.argsFree[:n-1]
		*a = opArgs{send: send, recv: recv, count: count, root: root}
		return a
	}
	return &opArgs{send: send, recv: recv, count: count, root: root}
}

// getCtx returns a recycled (or fresh) runCtx for one process's part of a
// collective. Return it with putCtx when the process is done with it. A
// recycled context keeps its latch.
func (co *core) getCtx(st *opState, rank int, p *sim.Proc) *runCtx {
	if n := len(co.ctxFree); n > 0 {
		rc := co.ctxFree[n-1]
		co.ctxFree = co.ctxFree[:n-1]
		*rc = runCtx{co: co, st: st, rank: rank, p: p, latch: rc.latch}
		return rc
	}
	return &runCtx{co: co, st: st, rank: rank, p: p}
}

func (co *core) putCtx(rc *runCtx) {
	*rc = runCtx{latch: rc.latch}
	co.ctxFree = append(co.ctxFree, rc)
}

// supportsDatatype is the cached form of cfg.Datatypes[dt].
func (co *core) supportsDatatype(dt Datatype) bool {
	if i := int(dt); i >= 0 && i < len(co.dtOK) {
		return co.dtOK[i]
	}
	return false
}

// supportsOp is the cached form of cfg.Ops[op].
func (co *core) supportsOp(op RedOp) bool {
	if i := int(op); i >= 0 && i < len(co.opOK) {
		return co.opOK[i]
	}
	return false
}

// resolveMetrics resolves the communicator's instruments in reg:
// kernel-launch counts, group-call fusion sizes, and fabric transfer
// volume, labeled by backend. A nil registry leaves them all nil.
func (co *core) resolveMetrics(reg *metrics.Registry) {
	reg.Gauge("ccl_channels",
		"Fabric channels the backend drives per transfer (its configured budget).",
		metrics.Labels{"backend": co.cfg.Name}).Set(float64(co.cfg.Channels))
	lbl := metrics.Labels{"backend": co.cfg.Name}
	co.mLaunchColl = reg.Counter("ccl_launches_total",
		"Stream-task launches by kind (collective, p2p, group).",
		metrics.Labels{"backend": co.cfg.Name, "kind": "collective"})
	co.mLaunchP2P = reg.Counter("ccl_launches_total",
		"Stream-task launches by kind (collective, p2p, group).",
		metrics.Labels{"backend": co.cfg.Name, "kind": "p2p"})
	co.mLaunchGroup = reg.Counter("ccl_launches_total",
		"Stream-task launches by kind (collective, p2p, group).",
		metrics.Labels{"backend": co.cfg.Name, "kind": "group"})
	co.mGroupCalls = reg.Counter("ccl_group_calls_total",
		"GroupStart/GroupEnd fused submissions.", lbl)
	co.mGroupFused = reg.Counter("ccl_group_fused_ops_total",
		"Send/Recv operations fused into group submissions.", lbl)
	co.mXferBytes = reg.Counter("ccl_transfer_bytes_total",
		"Payload bytes moved over the fabric, per backend.", lbl)
}

// countLaunch records one stream-task launch: kind is "collective", "p2p",
// or "group" (a fused group pays one launch for all its operations — the
// advantage the fusion counter quantifies).
func (co *core) countLaunch(kind string) {
	switch kind {
	case "collective":
		co.mLaunchColl.Inc()
	case "p2p":
		co.mLaunchP2P.Inc()
	default:
		co.mLaunchGroup.Inc()
	}
}

// countGroup records one GroupEnd: n fused sends+recvs under one launch.
func (co *core) countGroup(n int) {
	co.mGroupCalls.Inc()
	co.mGroupFused.Add(float64(n))
}

// countXfer records payload bytes moved over the fabric on this
// communicator's behalf (scratch-pipeline hops included).
func (co *core) countXfer(bytes int64) {
	co.mXferBytes.Add(float64(bytes))
}

// Comm is one rank's handle on a CCL communicator (ncclComm_t analogue).
// All rank handles are created together by NewComms, matching
// ncclCommInitAll / the MPI-bootstrapped ncclCommInitRank flow.
type Comm struct {
	core  *core
	rank  int
	seq   int       // this rank's collective sequence number
	pseq  int       // this rank's persistent-op ordinal (Init rendezvous key)
	group *groupOps // non-nil between GroupStart and GroupEnd
	// asyncErr is a failure verdict raised inside this rank's stream task
	// (the collective watchdog firing on a dead peer), where the issuing
	// call has already returned. Callers collect it with TakeAsyncErr
	// after synchronizing the stream.
	asyncErr error
	// algo/algoChunk force a schedule family for this rank's collectives
	// (SetAlgorithm); the zero values keep the built-in size-based split.
	algo      Algorithm
	algoChunk int64
}

type groupOps struct {
	sends []p2pOp
	recvs []p2pOp
	// streams used by the grouped calls; GroupEnd enqueues on the first.
	stream *device.Stream
	// ownSrc and ownDst are exchange's copy of the rank's own block, made
	// uncharged when the stream reaches the group; zero views elsewhere.
	ownSrc, ownDst device.View
}

// copyOwn makes exchange's copy of the rank's own block, if it has one.
func (g *groupOps) copyOwn() {
	if g.ownDst.N > 0 {
		copy(g.ownDst.Bytes(), g.ownSrc.Bytes())
	}
}

type p2pOp struct {
	peer  int
	buf   *device.Buffer
	bytes int64
}

type p2pSlot struct {
	buf   *device.Buffer
	bytes int64
	done  *sim.Event
}

// NewComms builds a communicator over the given devices and returns the
// per-rank handles. It validates that the backend can drive every device
// and consults the fabric's fault agent, when it is an Injector, for an
// injected comm-init failure: if any rank's init is failed, the whole
// creation fails, as ncclCommInitAll would. The communicator keeps the
// fault agent and metrics registry attached to the fabric at this point.
func NewComms(fab *fabric.Fabric, devs []*device.Device, cfg Config) ([]*Comm, error) {
	if len(devs) == 0 {
		return nil, &Error{Backend: cfg.Name, Result: ErrInvalidArgument, Msg: "no devices"}
	}
	for _, d := range devs {
		if !cfg.SupportsKind(d.Kind) {
			return nil, &Error{Backend: cfg.Name, Result: ErrUnsupportedDevice,
				Msg: fmt.Sprintf("cannot drive %s", d)}
		}
	}
	inj, _ := fab.Faults().(Injector)
	if inj != nil {
		now := fab.Kernel().Now()
		for r := range devs {
			if err := inj.CommInitError(cfg.Name, r, now); err != nil {
				return nil, err
			}
		}
	}
	co := &core{
		cfg: cfg, fab: fab, devs: devs, n: len(devs), faults: inj, failStop: fab.FailStop(),
		ops:       make(map[int]*opState),
		p2pPost:   make(map[[2]int]*sim.Chan[*p2pSlot]),
		engines:   make(map[*sim.Proc]*hierEngine),
		persist:   make(map[int]*persistShared),
		idlePipes: make(map[[2]int]*pipe),
	}
	for dt, ok := range cfg.Datatypes {
		if i := int(dt); i >= 0 && i < len(co.dtOK) {
			co.dtOK[i] = ok
		}
	}
	for op, ok := range cfg.Ops {
		if i := int(op); i >= 0 && i < len(co.opOK) {
			co.opOK[i] = ok
		}
	}
	twice := make([]int, 2*len(devs))
	for i := range twice {
		twice[i] = i % len(devs)
	}
	co.ranks = twice[:len(devs)]
	co.resolveMetrics(fab.Metrics())
	co.workers = make([]*sim.Pool[helperJob], len(devs))
	comms := make([]*Comm, len(devs))
	for r := range devs {
		co.workers[r] = sim.NewPool(fmt.Sprintf("%s/r%d/worker", cfg.Name, r), co.runJob)
		comms[r] = &Comm{core: co, rank: r}
	}
	return comms, nil
}

// Run is the pure-CCL world runner, the counterpart of mpi.Job.Run for
// programs that drive a vendor library directly. It spawns one process per
// handle, in rank order, named rank<r>; each creates a stream on its
// device and calls fn. Run drives the kernel until every rank returns and
// returns the kernel's error (a *sim.DeadlockError, or a process's
// *sim.PanicError re-panicked). A world runs once: either way Run closes
// the kernel, unwinding every process still parked.
func Run(comms []*Comm, fn func(cc *Comm, s *device.Stream, p *sim.Proc)) error {
	k := comms[0].Device().Kernel()
	defer k.Close()
	for _, cc := range comms {
		k.Spawn(fmt.Sprintf("rank%d", cc.rank), func(p *sim.Proc) {
			fn(cc, cc.Device().NewStream(), p)
		})
	}
	return k.Run()
}

// Rank returns this handle's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.core.n }

// Device returns the rank's device.
func (c *Comm) Device() *device.Device { return c.core.devs[c.rank] }

// Backend returns the backend configuration name (e.g. "nccl").
func (c *Comm) Backend() string { return c.core.cfg.Name }

// Config returns the backend personality.
func (c *Comm) Config() Config { return c.core.cfg }

// SetWatchdog arms the collective watchdog with deadline d (shared by all
// rank handles; 0 disarms). When armed, a rank's stream task that waits
// longer than d for its peers — at the collective start rendezvous or on a
// point-to-point match — abandons the operation with an ErrRankDead
// verdict instead of blocking forever on a fail-stopped peer. The verdict
// is asynchronous (the issuing call already returned); collect it with
// TakeAsyncErr after synchronizing the stream. The deadline must exceed
// the largest healthy inter-rank skew or slow ranks will be misread as
// dead.
func (c *Comm) SetWatchdog(d time.Duration) { c.core.watchdog = d }

// Watchdog reports the armed watchdog deadline (0 = disarmed).
func (c *Comm) Watchdog() time.Duration { return c.core.watchdog }

// TakeAsyncErr returns and clears this rank's asynchronous failure
// verdict, if any. Call after Stream.Synchronize: a watchdog abort lets
// the stream task complete, so synchronization returns normally and the
// verdict is only visible here.
func (c *Comm) TakeAsyncErr() error {
	err := c.asyncErr
	c.asyncErr = nil
	return err
}

// raiseAsync records an asynchronous failure verdict, keeping the first.
func (c *Comm) raiseAsync(err error) {
	if c.asyncErr == nil {
		c.asyncErr = err
	}
}

// SetRankIDs gives the communicator's ranks global identities (shared by
// every rank handle; ids[r] is local rank r's identity, typically its MPI
// world rank). Fault rules and failure verdicts then probe and report
// those identities instead of the communicator-local numbering — what
// keeps a crash rule naming world rank 5 from re-firing on whichever
// survivor inherits local rank 5 after a shrink. nil restores the default
// identity mapping.
func (c *Comm) SetRankIDs(ids []int) {
	if ids != nil && len(ids) != c.core.n {
		panic(fmt.Sprintf("ccl: %d rank ids for %d ranks", len(ids), c.core.n))
	}
	c.core.rankIDs = ids
}

// RankIDs returns the global identity mapping (nil = local ranks).
func (c *Comm) RankIDs() []int { return c.core.rankIDs }

// rankID resolves a local rank to the identity fault hooks see.
func (co *core) rankID(r int) int {
	if co.rankIDs != nil {
		return co.rankIDs[r]
	}
	return r
}

// SetChannelCap caps how many fabric channels this communicator's
// transfers drive (0 clears the cap; values above the configured budget
// have no effect). The cap is shared by every rank handle — it is the
// dispatch layer's reaction to a degraded link: drive fewer channels so
// concurrent flows keep a fair share of the shrunken pool.
func (c *Comm) SetChannelCap(n int) {
	if n < 0 {
		n = 0
	}
	c.core.chanCap = n
}

// ChannelCap reports the active channel-budget cap (0 = none).
func (c *Comm) ChannelCap() int { return c.core.chanCap }

// opState coordinates one collective across all ranks.
type opState struct {
	seq   int
	args  []*opArgs
	start *sim.Barrier
	done  int
	pipes map[[2]int]*pipe
	// aborted marks a collective judged dead by the watchdog: some rank
	// timed out at the start rendezvous, so the algorithm can no longer
	// run this sequence. Ranks arriving later fail fast with the same
	// verdict instead of waiting out their own deadline.
	aborted bool
	// abortErr is the shared mid-schedule verdict (first writer wins): a
	// transfer hit an active network cut after the start rendezvous, so
	// the whole sequence is void — including on ranks whose own hops
	// stayed on one side and "succeeded" with partial data. Each rank
	// raises it as its async verdict when its schedule task finishes.
	abortErr error
	// scratch is per-rank staging space a compiled plan requested
	// (comp.Plan.Scratch); allocated by the first rank to execute the
	// plan, freed with the op. Nil entries mean the rank needs none.
	scratch []*device.Buffer
	// vplan is the alltoallv move program built at run time from every
	// rank's counts (first arriving rank builds it; see compiled.go).
	vplan any
	// faithful is the op's byte regime, the fabric's Faithful() read once
	// when the first rank enters the wave (entered counts the ranks that
	// have, back to 0 when all have). Every byte decision of the wave reads
	// it — the priced hops of the ring and the tree fan-in, their owner
	// passes and the hierarchical fan-out — so a SetIntegrity or SetFaults
	// while the op runs cannot split it between two regimes.
	faithful bool
	entered  int
}

type opArgs struct {
	send, recv *device.Buffer
	count      int
	root       int
	// Vector-collective shapes (alltoallv): per-peer element counts and
	// displacements. The compiled executor reads every rank's counts after
	// the start rendezvous to build the move program.
	scounts, sdispls, rcounts, rdispls []int
}

// enter records the op's byte regime at the first rank's entry into a
// wave: once per one-shot op, and once per wave of a persistent handle.
func (st *opState) enter(co *core) {
	if st.entered == 0 {
		st.faithful = co.fab.Faithful()
	}
	if st.entered++; st.entered == co.n {
		st.entered = 0
	}
}

// join registers rank args for collective #seq and returns the shared
// state: a finished op's recycled state when one is free (see finish).
func (co *core) join(seq, rank int, a *opArgs) *opState {
	st, ok := co.ops[seq]
	if !ok {
		if n := len(co.opFree); n > 0 {
			st = co.opFree[n-1]
			co.opFree = co.opFree[:n-1]
			st.seq = seq
		} else {
			st = co.newOpState(seq)
		}
		co.ops[seq] = st
	}
	st.args[rank] = a
	return st
}

// newOpState builds the shared state of one collective.
func (co *core) newOpState(seq int) *opState {
	return &opState{
		seq:   seq,
		args:  make([]*opArgs, co.n),
		start: sim.NewBarrier(co.fab.Kernel(), co.n),
		pipes: make(map[[2]int]*pipe),
	}
}

// finish releases op state once every rank's task completed, recycling the
// per-rank argument records onto the core free list. A clean op hands its
// pipes back to the pairs' idle stacks and its state (pipe map, start
// barrier, args slice) to the op free list. An aborted op — a watchdog
// verdict or a severed hop — may have stranded credits or signals
// mid-schedule, so it frees its slots and returns nothing: every op starts
// on full credits and empty pipes.
func (co *core) finish(st *opState) {
	st.done++
	if st.done < co.n {
		return
	}
	clean := !st.aborted && st.abortErr == nil
	for key, pp := range st.pipes {
		if clean {
			co.parkPipe(key, pp)
		} else {
			pp.free()
		}
	}
	for _, b := range st.scratch {
		if b != nil {
			b.Free()
		}
	}
	st.scratch = nil
	for i, a := range st.args {
		if a != nil {
			st.args[i] = nil
			*a = opArgs{}
			co.argsFree = append(co.argsFree, a)
		}
	}
	delete(co.ops, st.seq)
	if clean {
		clear(st.pipes)
		st.done, st.vplan = 0, nil
		co.opFree = append(co.opFree, st)
	}
}

// pipe is a credit-managed scratch pipeline between a directed rank pair,
// modeling NCCL's bounded FIFO buffers (NCCL_BUFFSIZE slots). Like NCCL's
// connection buffers it belongs to the communicator: an op takes the pair's
// idle pipe at its first touch of the pair and parks it again when the op
// finishes clean (see finish), so its channels and slots outlive the op.
type pipe struct {
	data   *sim.Chan[int]
	credit *sim.Chan[int]
	slots  [pipeSlots]*device.Buffer
	next   *pipe // the pair's next idle pipe (see core.idlePipes)
}

const pipeSlots = 2

// pipe returns the op's pipe for the pair, taking it on first use with slot
// capacity of at least slotBytes at the receiver's device.
func (st *opState) pipe(co *core, from, to int, slotBytes int64) *pipe {
	key := [2]int{from, to}
	pp, ok := st.pipes[key]
	if !ok {
		pp = co.takePipe(key, slotBytes)
		st.pipes[key] = pp
	}
	return pp
}

// takePipe lends an op the pair's idle pipe, or builds one on full
// credits. Slots only grow: a pipe keeps the largest capacity its pair has
// needed, so a pair that alternates sizes settles on one allocation.
func (co *core) takePipe(key [2]int, slotBytes int64) *pipe {
	pp := co.idlePipes[key]
	if pp != nil {
		co.idlePipes[key], pp.next = pp.next, nil
	} else {
		k := co.fab.Kernel()
		pp = &pipe{
			data:   sim.NewChan[int](k, pipeSlots+1),
			credit: sim.NewChan[int](k, pipeSlots+1),
		}
		for i := range pp.slots {
			pp.credit.TrySend(i)
		}
	}
	if pp.slots[0] == nil || pp.slots[0].Len() < slotBytes {
		pp.free()
		for i := range pp.slots {
			pp.slots[i] = co.devs[key[1]].MustMallocScratch(slotBytes)
		}
	}
	return pp
}

// parkPipe returns a clean op's pipe to its pair's idle stack. A clean op
// consumed every signal and returned every credit; anything else is a
// schedule bug that reuse would carry into the next op.
func (co *core) parkPipe(key [2]int, pp *pipe) {
	if pp.data.Len() != 0 || pp.credit.Len() != pipeSlots {
		panic(fmt.Sprintf("ccl: pipe %d->%d finished with %d signals and %d credits",
			key[0], key[1], pp.data.Len(), pp.credit.Len()))
	}
	pp.next = co.idlePipes[key]
	co.idlePipes[key] = pp
}

// free returns the pipe's slots to the receiver's device.
func (pp *pipe) free() {
	for i, s := range pp.slots {
		if s != nil {
			s.Free()
			pp.slots[i] = nil
		}
	}
}

// runCtx is the execution context of one rank's part of a collective.
type runCtx struct {
	co   *core
	st   *opState
	rank int
	p    *sim.Proc

	// gate is a partitioned persistent handle's readiness gate (see
	// persistent.go); nil everywhere else.
	gate *partGate
	// latch counts this context's posted jobs down (see post); created at
	// the first post.
	latch *sim.Counter

	// chunk overrides the fabric pipeline granularity for this context's
	// transfers (compiled plans carry a searched chunk size; 0 = backend
	// default).
	chunk int64
}

func (rc *runCtx) dev() *device.Device { return rc.co.devs[rc.rank] }

func (rc *runCtx) opts() fabric.Opts {
	o := rc.co.fabOpts()
	if rc.chunk > 0 {
		o.ChunkBytes = rc.chunk
	}
	return o
}

// fabOpts builds the transfer options, honoring any channel-budget cap the
// dispatch layer applied for a degraded link.
func (co *core) fabOpts() fabric.Opts {
	ch := co.cfg.Channels
	if co.chanCap > 0 && ch > co.chanCap {
		ch = co.chanCap
	}
	return fabric.Opts{Channels: ch, ChunkBytes: co.cfg.ChunkBytes}
}

// xfer moves bytes between devices applying the backend's inter-node
// penalty on cross-node hops. A hop severed by a network partition aborts
// the sequence: the copy is skipped, the shared verdict is recorded, and
// the schedule keeps draining — same-side hops still complete and the pipe
// signaling below still fires, so every rank finishes in bounded virtual
// time instead of stranding peers mid-collective. noCopy prices the hop
// without moving bytes (fabric.Price); xfer reports whether the hop was
// delivered.
func (rc *runCtx) xfer(dst, src device.View, n int64, noCopy bool) bool {
	rc.co.countXfer(n)
	var (
		d   time.Duration
		err error
	)
	if noCopy {
		d, err = rc.co.fab.Price(rc.p, dst.Device(), src.Device(), n, rc.opts())
	} else {
		d, err = rc.co.fab.TryTransfer(rc.p, dst, src, n, rc.opts())
	}
	if err != nil {
		if !errors.Is(err, fabric.ErrPartitioned) {
			panic(err)
		}
		rc.st.aborted = true
		if rc.st.abortErr == nil {
			rc.st.abortErr = rc.co.severedVerdict(rc.p.Now())
		}
		return false
	}
	pen := rc.co.cfg.InterNodePenalty
	if pen > 1 && src.Device() != nil && dst.Device() != nil && src.Device().Node != dst.Device().Node {
		rc.p.Sleep(time.Duration(float64(d) * (pen - 1)))
	}
	return true
}

// helperJob is one job for a rank's resident workers (core.workers). Most
// are the asynchronous sends that let an executing process receive
// concurrently — rings are full duplex, exactly like the hardware channels
// they run on. Jobs are plain values, so a post allocates nothing. A job is
// one putTo by transport how; or, when blocks is non-nil, a node block-set:
// one n-byte block per listed rank r at offset r·n of src, staged, or
// placed (putDirect) at the same offset of dst; or, when ph is non-nil, one
// lane of a compiled plan phase: ph's moves to rank to on plan lane lane;
// or, when eng is non-nil, one call of a hierarchical leader's engine; or,
// when group is non-nil, one GroupEnd send of n bytes from src to rank to.
// The worker runs it under the poster's st, rank, gate and chunk and counts
// done down when it completes.
type helperJob struct {
	to           int
	how          transport
	dst, src     device.View
	n, slotBytes int64
	blocks       []int
	ph           *comp.RankPhase
	lane         int
	eng          *hierEngine
	group        *Comm

	st    *opState
	rank  int
	gate  *partGate
	chunk int64
	done  *sim.Counter
}

// post hands j to one of the rank's resident workers and returns rc's
// latch, which fires when the job completes. Wait on it before reusing src
// and before posting again: posting while the previous job still runs
// panics, like overflowing a stream's queue.
func (rc *runCtx) post(j helperJob) *sim.Counter {
	done := rc.arm(1)
	rc.start(j, done)
	return done
}

// arm readies rc's latch to count n jobs down.
func (rc *runCtx) arm(n int) *sim.Counter {
	if rc.latch == nil {
		rc.latch = sim.NewCounter(rc.p.Kernel(), 0)
	} else if rc.latch.Pending() > 0 {
		panic(fmt.Sprintf("ccl: %s posted a send while its previous one is still running", rc.p.Name()))
	}
	rc.latch.Reset(n)
	return rc.latch
}

// start posts j, under rc's context, to the rank's workers; done counts it
// down when it completes.
func (rc *runCtx) start(j helperJob, done *sim.Counter) {
	j.st, j.rank, j.gate, j.chunk, j.done = rc.st, rc.rank, rc.gate, rc.chunk, done
	rc.co.workers[rc.rank].Post(rc.p.Kernel(), j)
}

// runJob runs one posted job on worker p.
func (co *core) runJob(p *sim.Proc, j helperJob) {
	rc := runCtx{co: co, st: j.st, rank: j.rank, p: p, gate: j.gate, chunk: j.chunk}
	switch {
	case j.eng != nil:
		j.eng.run(p)
	case j.group != nil:
		if err := co.runSend(p, j.group.rank, p2pOp{peer: j.to, buf: j.src.Buf, bytes: j.n}); err != nil {
			j.group.raiseAsync(err)
		}
	case j.ph != nil:
		rc.runLane(j.ph, j.to, j.lane, j.slotBytes)
	case j.blocks == nil:
		rc.putTo(j.to, j.how, j.dst, j.src, j.n, j.slotBytes)
	default:
		for _, r := range j.blocks {
			off := int64(r) * j.n
			if j.how == placed {
				rc.putDirect(j.to, placed, j.dst.Sub(off, j.n), j.src.Sub(off, j.n), j.n)
			} else {
				rc.put(j.to, j.src.Sub(off, j.n), j.n, j.n)
			}
		}
	}
	if j.done != nil {
		j.done.Done()
	}
}

// putAsync runs putTo on one of the rank's resident workers (see post).
func (rc *runCtx) putAsync(to int, how transport, dst, src device.View, n int64, slotBytes int64) *sim.Counter {
	return rc.post(helperJob{to: to, how: how, dst: dst, src: src, n: n, slotBytes: slotBytes})
}

// put is a staged putTo.
func (rc *runCtx) put(to int, src device.View, n int64, slotBytes int64) {
	rc.putTo(to, staged, device.View{}, src, n, slotBytes)
}

// transport is how a put's payload reaches the receiver, chosen by the
// schedule at each put. Whatever it is, the put takes the credit, pays the
// hop's wire time (fabric.Price is TryTransfer's pricing core) and sends
// the data signal as a staged put does, so flow control, and with it every
// virtual timestamp, does not depend on it: only the host bytes moved do.
type transport uint8

const (
	// staged copies the payload into the receiver's scratch slot, which
	// get returns.
	staged transport = iota
	// placed writes the payload at dst, its final offset in the receiver's
	// own buffer. The receiver consumes it with getPlaced (or waitDirect,
	// after putDirect); the schedule must ensure the write cannot race the
	// receiver's own accesses to dst (see getPlaced for the ring
	// allgather's argument).
	placed
	// priced moves no bytes: the receiver consumes the put without reading
	// a payload. Only schedules whose owner passes move the bytes instead
	// put it, on a faithful op (opState.faithful): the ring allreduce's
	// hops (see ringReduceScatterOver), the group tree fan-in's (see
	// treeReduceOver) and the hierarchical allreduce's fan-out (see
	// hierAllReduce).
	priced
)

// putTo ships n bytes from src to rank "to" by transport how (dst is the
// placed destination, ignored otherwise) and signals it; it blocks on
// flow-control credits.
func (rc *runCtx) putTo(to int, how transport, dst, src device.View, n int64, slotBytes int64) {
	pp := rc.st.pipe(rc.co, rc.rank, to, slotBytes)
	rc.p.Sleep(rc.co.cfg.StepCost)
	slot := pp.credit.Recv(rc.p)
	switch how {
	case staged:
		rc.xfer(pp.slots[slot].View(0, n), src, n, false)
	case placed:
		rc.xfer(dst, src, n, false)
	case priced:
		rc.xfer(pp.slots[slot].Whole(), src, n, true)
	}
	pp.data.Send(rc.p, slot)
}

// get blocks until a put from rank "from" is ready and returns its slot
// index and the slot's payload. The caller must release it with release.
func (rc *runCtx) get(from int, slotBytes int64) (int, device.View) {
	pp := rc.st.pipe(rc.co, from, rc.rank, slotBytes)
	slot := pp.data.Recv(rc.p)
	return slot, pp.slots[slot].Whole()
}

func (rc *runCtx) release(from, slot int, slotBytes int64) {
	rc.st.pipe(rc.co, from, rc.rank, slotBytes).credit.TrySend(slot)
}

// putDirect ships n bytes straight into dst (a region of the receiving
// rank's user buffer that is written exactly once) by transport how,
// placed or priced (the hop priced, no bytes moved), and signals rank
// "to".
func (rc *runCtx) putDirect(to int, how transport, dst, src device.View, n int64) {
	pp := rc.st.pipe(rc.co, rc.rank, to, 1)
	rc.p.Sleep(rc.co.cfg.StepCost)
	rc.xfer(dst, src, n, how == priced)
	pp.data.Send(rc.p, 0)
}

// waitDirect consumes one direct-write signal from rank "from".
func (rc *runCtx) waitDirect(from int) {
	pp := rc.st.pipe(rc.co, from, rc.rank, 1)
	pp.data.Recv(rc.p)
}

// reduceInto combines src into dst over count elements, charging device time.
// Both views may be longer: only their first count elements are touched.
func (rc *runCtx) reduceInto(op RedOp, dt Datatype, dst, src device.View, count int) {
	elem.Reduce(op.elemOp(), dt.kind(), dst.Bytes(), src.Bytes(), count)
	rc.p.Sleep(rc.dev().ReduceTime(int64(count) * int64(dt.Size())))
}

// reduceTo is reduceInto out of place, dst = a ⊕ src, at the same device
// time: a rank's first reduce of a chunk in the hop-by-hop tree, whose own
// input it may read from the send buffer (see treeReduceOver).
func (rc *runCtx) reduceTo(op RedOp, dt Datatype, dst device.View, a []byte, src device.View, count int) {
	elem.ReduceTo(op.elemOp(), dt.kind(), dst.Bytes(), a, src.Bytes(), count)
	rc.p.Sleep(rc.dev().ReduceTime(int64(count) * int64(dt.Size())))
}

// inject consults the fault hooks for an error to fail this call with.
// The fail-stop probe runs first: a dead rank's own call fails fast with
// ErrRankDead before any work enqueues, so it never joins the collective
// its surviving peers will time out on. The returned error is nil when no
// hook is attached or no rule fires.
func (c *Comm) inject(op string) error {
	co := c.core
	if co.faults == nil && co.failStop == nil {
		return nil
	}
	now := co.fab.Kernel().Now()
	id := co.rankID(c.rank)
	if co.failStop != nil && co.failStop.OpCrash(co.cfg.Name, op, id, now) {
		return &Error{Backend: co.cfg.Name, Result: ErrRankDead, Op: op, Rank: id,
			Msg: "rank fail-stopped"}
	}
	if co.faults == nil {
		return nil
	}
	if e := co.faults.OpError(co.cfg.Name, op, id, now); e != nil {
		e.Op, e.Rank = op, id
		return e
	}
	return nil
}

// deadVerdict builds the watchdog's ErrRankDead verdict for a rank whose
// collective timed out, attributing it to a known-dead peer when the
// fail-stop detector can name one (Rank -1 otherwise).
func (co *core) deadVerdict(op string, now time.Duration) *Error {
	if co.failStop != nil {
		if dead := co.failStop.DeadRanks(now); len(dead) > 0 {
			return &Error{Backend: co.cfg.Name, Result: ErrRankDead, Op: op, Rank: dead[0],
				Msg: fmt.Sprintf("peer fail-stopped; watchdog fired after %v", co.watchdog)}
		}
	}
	return &Error{Backend: co.cfg.Name, Result: ErrRankDead, Op: op, Rank: -1,
		Msg: fmt.Sprintf("watchdog fired after %v; failed peer unknown", co.watchdog)}
}

// severedVerdict builds the ErrUnreachable verdict for a schedule whose
// transfer crossed an active network cut. The fabric routes by node, so the
// specific far-side rank is unknown here (Rank -1); the membership layer
// re-derives the severed peers from the partition oracle.
func (co *core) severedVerdict(now time.Duration) *Error {
	return &Error{Backend: co.cfg.Name, Result: ErrUnreachable, Rank: -1,
		Msg: fmt.Sprintf("transfer severed by network partition at %v", now)}
}

// delay charges any injected straggler latency for this rank's part of op.
func (c *Comm) delay(p *sim.Proc, op string) {
	co := c.core
	if co.faults == nil {
		return
	}
	if d := co.faults.OpDelay(co.cfg.Name, op, co.rankID(c.rank), p.Now()); d > 0 {
		p.Sleep(d)
	}
}

// validate checks a collective call against the fault hook and the backend
// capability matrix. opName is the operation for fault-rule scoping.
func (c *Comm) validate(opName string, send, recv *device.Buffer, count int, dt Datatype, op *RedOp, root int) error {
	if err := c.inject(opName); err != nil {
		return err
	}
	return c.validateArgs(opName, send, recv, count, dt, op, root)
}

// validateArgs is validate without the fault-hook probe: persistent-op
// Init uses it so that building a handle does not consume a crash rule's
// call budget — fault rules scoped to an operation count executions
// (Start), not plan construction.
func (c *Comm) validateArgs(opName string, send, recv *device.Buffer, count int, dt Datatype, op *RedOp, root int) error {
	cfg := &c.core.cfg
	if count < 0 {
		return &Error{Backend: cfg.Name, Result: ErrInvalidArgument, Op: opName, Rank: c.rank,
			Msg: "negative count"}
	}
	if !c.core.supportsDatatype(dt) {
		return &Error{Backend: cfg.Name, Result: ErrUnsupportedDatatype, Op: opName, Rank: c.rank,
			Msg: fmt.Sprintf("datatype %v not supported", dt)}
	}
	if op != nil && !c.core.supportsOp(*op) {
		return &Error{Backend: cfg.Name, Result: ErrUnsupportedOp, Op: opName, Rank: c.rank,
			Msg: fmt.Sprintf("reduction %v not supported", *op)}
	}
	if root < 0 || root >= c.core.n {
		return &Error{Backend: cfg.Name, Result: ErrInvalidArgument, Op: opName, Rank: c.rank,
			Msg: fmt.Sprintf("root %d out of range", root)}
	}
	// The built-in collectives need both buffers on every rank, except that
	// only broadcast's root reads send and only Reduce's root writes recv.
	// Other calls check their own buffers.
	needSend, needRecv := false, false
	switch opName {
	case "allreduce", "allgather", "reducescatter":
		needSend, needRecv = true, true
	case "broadcast":
		needSend, needRecv = c.rank == root, true
	case "reduce":
		needSend, needRecv = true, c.rank == root
	}
	if needSend && send == nil || needRecv && recv == nil {
		return c.invalidArg(opName, "buffer missing")
	}
	bytes := int64(count) * int64(dt.Size())
	if send != nil && send.Len() < bytes {
		return &Error{Backend: cfg.Name, Result: ErrInvalidArgument, Op: opName, Rank: c.rank,
			Msg: "send buffer too small"}
	}
	if recv != nil && recv.Len() < bytes {
		return &Error{Backend: cfg.Name, Result: ErrInvalidArgument, Op: opName, Rank: c.rank,
			Msg: "recv buffer too small"}
	}
	return nil
}

// launch charges the backend's fixed operation overhead plus any
// size-triggered step overhead.
func (rc *runCtx) launch(bytes int64) {
	rc.co.countLaunch("collective")
	rc.p.Sleep(rc.co.cfg.Launch + rc.co.cfg.stepExtra(bytes))
}
