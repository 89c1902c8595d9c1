package ccl

// Unified executor for compiled collective plans (internal/ccl/comp).
// One code path runs both the compiler's output and converted MSCCL
// schedules: a comp.Plan is a list of phases of concrete moves, each rank
// executes its slice of every phase (sends per destination and lane on
// the rank's resident workers, inline receives, local copies), and the
// credit-managed pipes of the built-in algorithms provide the flow
// control. Two transports exist and a plan must use one consistently per
// rank pair (a pair pipe's slot size is fixed at first use): direct moves
// write straight into the receiver's buffer (compiled
// Alltoall/Scatter/Gather plans are all-direct), staged moves ship through
// scratch slots and may reduce on arrival (converted MSCCL schedules are
// all-staged).
//
// Deadlock safety: every rank always drains its full program — an aborted
// transfer (network partition) fails fast, skips the copy, and still
// signals its pipe, so receivers never strand. Fences (phased plans) are
// reached by every rank unconditionally; with the watchdog armed a
// crashed peer bounds the wait and the barrier's all-or-nobody release
// makes the timeout verdict uniform across survivors.

import (
	"mpixccl/internal/ccl/comp"
	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

// compTopo extracts (once) the cost-model topology from the fabric's
// system description and the backend personality.
func (co *core) compTopo() *comp.Topo {
	if co.compTopoCache != nil {
		return co.compTopoCache
	}
	sys := co.fab.System()
	dense := map[int]int{}
	nodeOf := make([]int, co.n)
	for r, d := range co.devs {
		id, ok := dense[d.Node]
		if !ok {
			id = len(dense)
			dense[d.Node] = id
		}
		nodeOf[r] = id
	}
	pen := co.cfg.InterNodePenalty
	if pen < 1 {
		pen = 1
	}
	co.compTopoCache = &comp.Topo{
		NodeOf: nodeOf, Nodes: len(dense),
		IntraAlpha: sys.Intra.Alpha.Seconds(), IntraChanBW: sys.Intra.ChannelBW,
		IntraDirCh: sys.Intra.DirChannels, IntraTotalCh: sys.Intra.TotalChannels,
		InterAlpha: sys.Inter.Alpha.Seconds(), InterChanBW: sys.Inter.ChannelBW,
		InterDirCh: sys.Inter.DirChannels, InterTotalCh: sys.Inter.TotalChannels,
		Launch: co.cfg.Launch.Seconds(), Step: co.cfg.StepCost.Seconds(),
		InterPenalty: pen, Channels: co.cfg.Channels,
	}
	return co.compTopoCache
}

type compPlanKey struct {
	op   string
	blk  int64
	root int
	key  string
}

// compiledPlan returns (compiling and caching on first use) the plan for
// one call shape: an explicit strategy key from the tuning table, or a
// cost-model search when the key is empty/"auto".
func (co *core) compiledPlan(op string, blk int64, root int, key string) (*comp.Plan, error) {
	if co.compPlans == nil {
		co.compPlans = map[compPlanKey]*comp.Plan{}
	}
	k := compPlanKey{op, blk, root, key}
	if p, ok := co.compPlans[k]; ok {
		return p, nil
	}
	t := co.compTopo()
	sh := comp.Shape{BlockBytes: blk, Root: root}
	var (
		p   *comp.Plan
		err error
	)
	if key == "" || key == "auto" {
		p, err = comp.Search(op, t, sh)
	} else if err = comp.ValidKey(op, key); err == nil {
		p, err = comp.CompileKey(op, t, sh, key)
	}
	if err != nil {
		return nil, err
	}
	co.compPlans[k] = p
	return p, nil
}

// fence synchronizes every rank between phases of a fenced plan, reusing
// the op's cyclic start barrier. Every rank reaches every fence (programs
// always drain), so the barrier's parties match. With the watchdog armed a
// hung peer bounds the wait; the barrier releases nobody unless all
// arrive, so every survivor times out together and abandons the remaining
// phases uniformly.
func (rc *runCtx) fence(op string) bool {
	st, co := rc.st, rc.co
	if st.start.WaitTimeout(rc.p, co.watchdog) {
		return true
	}
	st.aborted = true
	if st.abortErr == nil {
		st.abortErr = co.deadVerdict(op, rc.p.Now())
	}
	return false
}

// bufAt resolves a move endpoint to a view of the owning rank's buffer.
func (rc *runCtx) bufAt(role comp.BufRole, rank int, off, n int64) device.View {
	st := rc.st
	switch role {
	case comp.SendBuf:
		return st.args[rank].send.View(off, n)
	case comp.RecvBuf:
		return st.args[rank].recv.View(off, n)
	default:
		return st.scratch[rank].View(off, n)
	}
}

// runPlan executes this rank's slice of a checked plan, whose staged
// moves ship through pipe slots of plan.Slot bytes. A phase's
// (destination, lane) pairs send concurrently, each on one of the rank's
// resident workers (see helperJob) and all counted down by one latch,
// while the process itself performs the local copies and receives.
func (rc *runCtx) runPlan(plan *comp.Plan, dt Datatype, op RedOp) {
	co, st := rc.co, rc.st
	slot := plan.Slot
	if plan.Scratch != nil && st.scratch == nil {
		// First rank to arrive stages scratch for everyone (cooperative
		// scheduling; every rank's moves resolve buffers lazily).
		st.scratch = make([]*device.Buffer, co.n)
		for r, sz := range plan.Scratch {
			if sz > 0 {
				st.scratch[r] = co.devs[r].MustMallocScratch(sz)
			}
		}
	}
	rp := plan.Rank(rc.rank)
	esz := int64(dt.Size())
	for pi := range rp.Phases {
		if plan.Fenced && pi > 0 {
			if !rc.fence(plan.Op) {
				return
			}
		}
		ph := &rp.Phases[pi]
		var sent *sim.Counter
		if len(ph.Dests) > 0 {
			sent = rc.arm(len(ph.Dests))
			for _, d := range ph.Dests {
				rc.start(helperJob{ph: ph, to: d.To, lane: d.Lane, slotBytes: slot}, sent)
			}
		}
		for i := range ph.Outs {
			m := &ph.Outs[i]
			if m.From != m.To {
				continue
			}
			src := rc.bufAt(m.SrcBuf, m.From, m.SrcOff, m.Bytes)
			dst := rc.bufAt(m.DstBuf, m.To, m.DstOff, m.Bytes)
			rc.copyView(dst, src)
		}
		for i := range ph.Ins {
			m := &ph.Ins[i]
			if m.Staged {
				si, buf := rc.get(m.From, slot)
				dst := rc.bufAt(m.DstBuf, rc.rank, m.DstOff, m.Bytes)
				if m.Reduce {
					rc.reduceInto(op, dt, dst, buf, int(m.Bytes/esz))
				} else {
					copy(dst.Bytes(), buf.Bytes()[:m.Bytes])
					rc.p.Sleep(rc.dev().CopyTime(m.Bytes))
				}
				rc.release(m.From, si, slot)
			} else {
				rc.waitDirect(m.From)
			}
		}
		if sent != nil {
			sent.Wait(rc.p)
		}
	}
}

// runLane performs one lane of a plan phase on a worker: ph's moves to
// rank to on plan lane lane, in order.
func (rc *runCtx) runLane(ph *comp.RankPhase, to, lane int, slot int64) {
	for i := range ph.Outs {
		m := &ph.Outs[i]
		if m.To != to || m.Lane != lane || m.From == m.To {
			continue
		}
		src := rc.bufAt(m.SrcBuf, m.From, m.SrcOff, m.SrcLen())
		if m.Staged {
			// Staged: a plan carries no proof that src outlives the
			// receiver's read, so Plan.Check requires staged
			// transport for reducing moves.
			rc.put(m.To, src, src.Len(), slot)
		} else {
			dst := rc.bufAt(m.DstBuf, m.To, m.DstOff, m.Bytes)
			rc.putDirect(m.To, placed, dst, src, m.Bytes)
		}
	}
}

// invalidArg is the backend's argument error for op on this rank.
func (c *Comm) invalidArg(op, msg string) error {
	return &Error{Backend: c.core.cfg.Name, Result: ErrInvalidArgument, Op: op, Rank: c.rank, Msg: msg}
}

// invalidPlan wraps a compile error as the backend's argument error.
func (c *Comm) invalidPlan(op string, err error) error {
	return c.invalidArg(op, err.Error())
}

// The send-recv-based collectives of §3.3 (CCLs ship only five built-ins)
// take a plan key: "" runs the group send-recv synthesis (exchange), "auto"
// the cost-model search, any other key that compiled strategy ("direct",
// "phased:chunk=1048576", ...). "direct" does not reproduce the group
// call's virtual time, so "" stays a schedule of its own. Arguments are
// checked before any fault probe.

// Alltoall exchanges count-element blocks between every rank pair under
// plan ("" = group send-recv, "auto" = search, else a compiled key). Both
// buffers hold n blocks.
func (c *Comm) Alltoall(send, recv *device.Buffer, count int, dt Datatype, plan string, s *device.Stream) error {
	if err := c.validateArgs("alltoall", nil, nil, count, dt, nil, 0); err != nil {
		return err
	}
	blk := int64(count) * int64(dt.Size())
	if n := int64(c.core.n); send == nil || recv == nil || send.Len() < blk*n || recv.Len() < blk*n {
		return c.invalidArg("alltoall", "alltoall buffers must hold one block per rank")
	}
	if plan == "" {
		return c.exchange(send, recv, dt, s, func(peer int) (int, int, int, int) {
			return peer * count, count, peer * count, count
		})
	}
	return c.enqueuePlan("alltoall", send, recv, count, dt, 0, plan, s)
}

// Alltoallv exchanges per-peer-sized blocks under plan ("" = Listing 1's
// group send-recv, which posts no message for an empty block; "auto" =
// search; else a compiled pairing key). Counts and displacements are in
// elements, and every block must lie inside its buffer. Each rank knows
// only its own, so a compiled move program is built at run time once all
// ranks' arguments rendezvous (see vPlan).
func (c *Comm) Alltoallv(send *device.Buffer, scounts, sdispls []int,
	recv *device.Buffer, rcounts, rdispls []int, dt Datatype, plan string, s *device.Stream) error {
	if err := c.validateArgs("alltoallv", nil, nil, 0, dt, nil, 0); err != nil {
		return err
	}
	n := c.core.n
	if len(scounts) != n || len(sdispls) != n || len(rcounts) != n || len(rdispls) != n {
		return c.invalidArg("alltoallv", "alltoallv wants one count and displacement per rank")
	}
	esz := int64(dt.Size())
	if scounts[c.rank] != rcounts[c.rank] {
		return c.invalidArg("alltoallv", "alltoallv own block's send and recv counts differ")
	}
	var maxBytes int64
	for q := 0; q < n; q++ {
		if !fits(send, sdispls[q], scounts[q], esz) || !fits(recv, rdispls[q], rcounts[q], esz) {
			return c.invalidArg("alltoallv", "alltoallv block is negative or outside its buffer")
		}
		maxBytes = max(maxBytes, int64(scounts[q])*esz)
	}
	if plan == "" {
		return c.exchange(send, recv, dt, s, func(peer int) (int, int, int, int) {
			sn, rn := scounts[peer], rcounts[peer]
			return sdispls[peer], only(sn > 0, sn), rdispls[peer], only(rn > 0, rn)
		})
	}
	if err := c.inject("alltoallv"); err != nil {
		return err
	}
	key := plan
	if key == "auto" {
		// Search on the largest per-peer block — the size that drives the
		// convoy behavior the pairing schedule exists to avoid.
		p, err := c.core.compiledPlan("alltoall", maxBytes, 0, key)
		if err != nil {
			return c.invalidPlan("alltoallv", err)
		}
		key = p.Key
	}
	strat, err := comp.ParseKey(key)
	if err != nil {
		return c.invalidPlan("alltoallv", err)
	}
	if err := comp.ValidKey("alltoallv", key); err != nil {
		return c.invalidPlan("alltoallv", err)
	}
	a := c.core.newArgs(send, recv, 0, 0)
	a.scounts, a.sdispls, a.rcounts, a.rdispls = scounts, sdispls, rcounts, rdispls
	c.enqueueColl(s, "alltoallv", a, 0, func(rc *runCtx) {
		pl := rc.vPlan(strat, esz)
		rc.chunk = pl.ChunkBytes
		rc.runPlan(pl, dt, Sum)
	})
	return nil
}

// fits reports whether count elements of esz bytes at element offset off
// lie inside b. An empty block fits anywhere but a negative offset.
func fits(b *device.Buffer, off, count int, esz int64) bool {
	if off < 0 || count < 0 {
		return false
	}
	return count == 0 || b != nil && int64(off+count)*esz <= b.Len()
}

// vPlan builds (once per op, by the first rank to execute) the alltoallv
// move program from every rank's counts: the pairing is the compiled
// alltoall's (comp.Pairwise), the moves are runtime data, and an empty
// block moves nothing. Runs after the start rendezvous, so all ranks'
// opArgs are visible.
func (rc *runCtx) vPlan(strat comp.Strategy, esz int64) *comp.Plan {
	st := rc.st
	if st.vplan != nil {
		return st.vplan.(*comp.Plan)
	}
	plan := comp.Pairwise("alltoallv", rc.co.compTopo(), strat, func(r, q int) (comp.Move, bool) {
		ar := st.args[r]
		ln := int64(ar.scounts[q]) * esz
		return comp.Move{
			From: r, To: q,
			SrcBuf: comp.SendBuf, SrcOff: int64(ar.sdispls[q]) * esz,
			DstBuf: comp.RecvBuf, DstOff: int64(st.args[q].rdispls[r]) * esz,
			Bytes: ln,
		}, ln > 0
	})
	if err := plan.Check(); err != nil {
		// Alltoallv checked every count and displacement on entry.
		panic(err)
	}
	st.vplan = plan
	return plan
}

// Scatter distributes root's n blocks under plan ("" = group send-recv,
// "auto" = search over the direct fan and leader-staged hierarchy, else a
// compiled key). Non-root send buffers may be nil.
func (c *Comm) Scatter(send, recv *device.Buffer, count int, dt Datatype, root int, plan string, s *device.Stream) error {
	if err := c.validateArgs("scatter", nil, recv, count, dt, nil, root); err != nil {
		return err
	}
	if recv == nil || c.rank == root && (send == nil || send.Len() < int64(count)*int64(dt.Size())*int64(c.core.n)) {
		return c.invalidArg("scatter", "scatter wants a recv buffer and, at root, a send block per rank")
	}
	if plan == "" {
		return c.exchange(send, recv, dt, s, func(peer int) (int, int, int, int) {
			if c.rank == root {
				return peer * count, count, 0, -1
			}
			return 0, -1, 0, only(peer == root, count)
		})
	}
	return c.enqueuePlan("scatter", send, recv, count, dt, root, plan, s)
}

// Gather collects every rank's block at root under plan ("" = group
// send-recv, "auto" = search, else a compiled key). Non-root recv buffers
// may be nil.
func (c *Comm) Gather(send, recv *device.Buffer, count int, dt Datatype, root int, plan string, s *device.Stream) error {
	if err := c.validateArgs("gather", send, nil, count, dt, nil, root); err != nil {
		return err
	}
	if send == nil || c.rank == root && (recv == nil || recv.Len() < int64(count)*int64(dt.Size())*int64(c.core.n)) {
		return c.invalidArg("gather", "gather wants a send buffer and, at root, a recv block per rank")
	}
	if plan == "" {
		return c.exchange(send, recv, dt, s, func(peer int) (int, int, int, int) {
			if c.rank == root {
				return 0, only(peer == root, count), peer * count, count
			}
			return 0, only(peer == root, count), 0, -1
		})
	}
	return c.enqueuePlan("gather", send, recv, count, dt, root, plan, s)
}

// enqueuePlan is the compiled tail of Alltoall, Scatter and Gather: probe
// the fault hooks, fetch (or compile) the plan for the call shape, and
// enqueue the rank's slice of it as one wave.
func (c *Comm) enqueuePlan(op string, send, recv *device.Buffer, count int, dt Datatype, root int, plan string, s *device.Stream) error {
	if err := c.inject(op); err != nil {
		return err
	}
	blk := int64(count) * int64(dt.Size())
	pl, err := c.core.compiledPlan(op, blk, root, plan)
	if err != nil {
		return c.invalidPlan(op, err)
	}
	a := c.core.newArgs(send, recv, count, root)
	c.enqueueColl(s, op, a, blk, func(rc *runCtx) {
		rc.chunk = pl.ChunkBytes
		rc.runPlan(pl, dt, Sum)
	})
	return nil
}

// PlanFor reports the plan the communicator would run for (op, block
// size, root) under the given key (""/"auto" = search): the strategy key
// and its modeled cost. The tuner sweeps candidate keys with this.
func (c *Comm) PlanFor(op string, blockBytes int64, root int, key string) (string, float64, error) {
	p, err := c.core.compiledPlan(op, blockBytes, root, key)
	if err != nil {
		return "", 0, err
	}
	return p.Key, p.Cost, nil
}

// PlanKeys lists the candidate strategy keys for op on this
// communicator's topology.
func (c *Comm) PlanKeys(op string) []string {
	return comp.Keys(op, c.core.compTopo())
}
