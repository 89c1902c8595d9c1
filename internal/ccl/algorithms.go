package ccl

import (
	"fmt"

	"mpixccl/internal/ccl/comp"
	"mpixccl/internal/device"
	"mpixccl/internal/elem"
	"mpixccl/internal/sim"
)

func (d Datatype) kind() elem.Kind {
	switch d {
	case Int8:
		return elem.U8
	case Int32:
		return elem.I32
	case Int64:
		return elem.I64
	case Float16:
		return elem.F16
	case Float32:
		return elem.F32
	case Float64:
		return elem.F64
	}
	panic(fmt.Sprintf("ccl: kind for %v", d))
}

func (o RedOp) elemOp() elem.Op {
	switch o {
	case Sum:
		return elem.OpSum
	case Prod:
		return elem.OpProd
	case Max:
		return elem.OpMax
	case Min:
		return elem.OpMin
	}
	panic(fmt.Sprintf("ccl: elem op for %v", o))
}

// enqueueColl registers the rank's args under the next sequence number and
// enqueues the rank's part of the algorithm on the stream as one wave.
func (c *Comm) enqueueColl(s *device.Stream, name string, a *opArgs, bytes int64,
	run func(rc *runCtx)) *sim.Event {
	seq := c.seq
	c.seq++
	st := c.core.join(seq, c.rank, a)
	rank := c.rank
	co := c.core
	return s.Enqueue(func(p *sim.Proc) {
		rc := co.getCtx(st, rank, p)
		c.wave(rc, name, bytes, run)
		// finish runs on every path, so the op state drains for the ranks
		// that did show up even when the wave was abandoned.
		co.finish(st)
		co.putCtx(rc)
	})
}

// wave runs rank c's part of one execution of a collective on rc.st, for
// one-shot calls (enqueueColl) and persistent waves (newPersistentColl)
// alike: the byte regime (recorded by the first rank in, see enter), the
// injected straggler latency, the launch, the start rendezvous
// under the collective watchdog, the schedule, and the verdict. A rank
// whose rendezvous times out on a fail-stopped peer, or that arrives after
// a peer already judged the sequence dead, abandons the schedule with an
// ErrRankDead verdict. A transfer that crossed a network cut mid-schedule
// voids every participant's result, even ranks whose own hops stayed on one
// side of the cut. Verdicts are asynchronous; a rank keeps the first.
func (c *Comm) wave(rc *runCtx, name string, bytes int64, run func(rc *runCtx)) {
	co, st, p := c.core, rc.st, rc.p
	st.enter(co)
	c.delay(p, name)
	rc.launch(bytes)
	// Only an armed watchdog fails fast on st.aborted: a severed hop sets it
	// too, and a persistent handle's op state outlives the wave, so with the
	// watchdog disarmed its later waves still run.
	wd := co.watchdog
	if (wd > 0 && st.aborted) || !st.start.WaitTimeout(p, wd) {
		st.aborted = true
		c.raiseAsync(co.deadVerdict(name, p.Now()))
		return
	}
	run(rc)
	if st.abortErr != nil {
		c.raiseAsync(st.abortErr)
	}
}

// resolveAlgo maps the forced schedule family (SetAlgorithm) onto what
// this call can actually run, degenerating gracefully: hierarchical on a
// shape without a node hierarchy (or an empty payload) falls back to the
// built-in auto split, and a forced flat ring with fewer elements than
// ranks runs the tree instead (the ring needs one segment per rank).
func (c *Comm) resolveAlgo(count int) (Algorithm, int64) {
	algo := c.algo
	if algo == AlgoAuto {
		return AlgoAuto, 0
	}
	switch algo {
	case AlgoHierarchical:
		if count == 0 || !c.core.hier().ok {
			return AlgoAuto, 0
		}
	case AlgoFlatRing:
		if count < c.core.n {
			return AlgoTree, 0
		}
	}
	return algo, c.hierChunk()
}

// AllReduce combines send into recv across all ranks with op. Large
// payloads run the multi-channel ring (reduce-scatter + allgather); small
// payloads run a latency-oriented binomial tree (reduce + broadcast),
// mirroring NCCL's ring/tree split. A forced algorithm (SetAlgorithm, fed
// by the tuning table) overrides the split and any custom MSCCL schedule.
func (c *Comm) AllReduce(send, recv *device.Buffer, count int, dt Datatype, op RedOp, s *device.Stream) error {
	if err := c.validate("allreduce", send, recv, count, dt, &op, 0); err != nil {
		return err
	}
	a := c.core.newArgs(send, recv, count, 0)
	_, run := c.allreduceSchedule(count, dt, op, 1, true)
	c.enqueueColl(s, "allreduce", a, int64(count)*int64(dt.Size()), run)
	return nil
}

// allreduceSchedule chooses allreduce's schedule family for count
// elements, once per call or per persistent handle, and returns it with
// the rank body that runs it: the forced family (SetAlgorithm), else a
// registered custom MSCCL schedule when custom allows one, else the
// backend's tree/ring size split. A hierarchical schedule over parts > 1
// partitions aligns its pipeline chunk with the partitions, so the leader
// ring consumes them as the application marks them ready.
func (c *Comm) allreduceSchedule(count int, dt Datatype, op RedOp, parts int, custom bool) (Algorithm, func(rc *runCtx)) {
	co := c.core
	esz := int64(dt.Size())
	bytes := int64(count) * esz
	algo, chunk := c.resolveAlgo(count)
	var msccl *Algo
	if algo == AlgoAuto && custom {
		if msccl = co.findAlgo(bytes); msccl != nil && count < msccl.NChunks {
			msccl = nil // too few elements to partition
		}
	}
	switch {
	case msccl != nil:
	case algo == AlgoAuto && (bytes <= co.cfg.TreeThreshold || count < co.n):
		algo = AlgoTree
	case algo == AlgoAuto:
		algo = AlgoFlatRing
	case algo == AlgoHierarchical && parts > 1:
		chunk = int64((count+parts-1)/parts) * esz
	}
	return algo, func(rc *runCtx) {
		a := rc.st.args[rc.rank]
		switch {
		case rc.co.n == 1:
			rc.waitAllParts()
			rc.localCopy(a.recv, a.send, bytes)
		case algo == AlgoHierarchical:
			rc.hierAllReduce(dt, op, count, chunk)
		case msccl != nil:
			rc.localCopy(a.recv, a.send, bytes)
			rc.runCustom(msccl, dt, op, count)
		case algo == AlgoTree:
			rc.waitAllParts()
			rc.treeAllReduce(dt, op, count)
		default:
			rc.waitAllParts()
			rc.ringAllReduce(dt, op, count)
		}
	}
}

// Broadcast copies root's send buffer into every rank's recv buffer.
func (c *Comm) Broadcast(send, recv *device.Buffer, count int, dt Datatype, root int, s *device.Stream) error {
	if err := c.validate("broadcast", send, recv, count, dt, nil, root); err != nil {
		return err
	}
	a := c.core.newArgs(send, recv, count, root)
	_, run := c.broadcastSchedule(count, dt, root)
	c.enqueueColl(s, "broadcast", a, int64(count)*int64(dt.Size()), run)
	return nil
}

// broadcastSchedule chooses broadcast's schedule family and returns it
// with the rank body: the chunked hierarchical fan-out when forced (and
// the shape has a node hierarchy), else the binomial tree, broadcast's
// flat schedule.
func (c *Comm) broadcastSchedule(count int, dt Datatype, root int) (Algorithm, func(rc *runCtx)) {
	if algo, chunk := c.resolveAlgo(count); algo == AlgoHierarchical {
		return algo, func(rc *runCtx) { rc.hierBroadcast(dt, count, root, chunk) }
	}
	return AlgoTree, func(rc *runCtx) { rc.treeBroadcast(dt, count, root) }
}

// Reduce combines send across ranks with op into root's recv buffer.
func (c *Comm) Reduce(send, recv *device.Buffer, count int, dt Datatype, op RedOp, root int, s *device.Stream) error {
	if err := c.validate("reduce", send, recv, count, dt, &op, root); err != nil {
		return err
	}
	bytes := int64(count) * int64(dt.Size())
	a := c.core.newArgs(send, recv, count, root)
	c.enqueueColl(s, "reduce", a, bytes, func(rc *runCtx) {
		a, n := rc.st.args[rc.rank], rc.co.n
		esz := int64(dt.Size())
		bytes := int64(count) * esz
		rel := (rc.rank - root + n) % n
		// The root reduces into recv. An inner rank (its first child is
		// rel+1) reduces into scratch, since its recv is not significant;
		// a leaf puts straight from send.
		acc := a.recv
		if rel != 0 && rel%2 == 0 && rel+1 < n {
			acc = rc.dev().MustMallocScratch(bytes)
			defer acc.Free()
		}
		// The modeled schedule copies every rank's input into an
		// accumulator and the root's result into recv. The tree reads send
		// in place and reduces into recv, so only a one-rank Reduce, which
		// reduces nothing, makes its copy, but every copy is charged.
		cp := rc.dev().CopyTime(bytes)
		rc.p.Sleep(cp)
		rc.treeReduceOver(rc.co.ranks[root:root+n], rel, dt, op, acc, comp.SendBuf, 0, count, max(bytes, esz), false)
		if rel == 0 {
			if n == 1 {
				copy(a.recv.Bytes()[:bytes], a.send.Bytes()[:bytes])
			}
			rc.p.Sleep(cp)
		}
	})
	return nil
}

// AllGather concatenates each rank's count-element send buffer into every
// rank's recv buffer (size count×n), in rank order.
func (c *Comm) AllGather(send, recv *device.Buffer, count int, dt Datatype, s *device.Stream) error {
	if err := c.validate("allgather", send, recv, count, dt, nil, 0); err != nil {
		return err
	}
	bytes := int64(count) * int64(dt.Size())
	if recv.Len() < bytes*int64(c.core.n) {
		return c.invalidArg("allgather", "recv buffer too small")
	}
	a := c.core.newArgs(send, recv, count, 0)
	_, run := c.allgatherSchedule(count, dt)
	c.enqueueColl(s, "allgather", a, bytes, run)
	return nil
}

// allgatherSchedule chooses allgather's schedule family and returns it
// with the rank body: the hierarchical leader ring when forced (and the
// shape has a node hierarchy), else allgather's flat schedule, the ring's
// allgather half over all ranks with rank r's block as segment r. Its hops
// are placed, so the pipes' slots stay empty and are sized at one byte.
func (c *Comm) allgatherSchedule(count int, dt Datatype) (Algorithm, func(rc *runCtx)) {
	if algo, chunk := c.resolveAlgo(count); algo == AlgoHierarchical {
		return algo, func(rc *runCtx) { rc.hierAllGather(dt, count, chunk) }
	}
	return AlgoFlatRing, func(rc *runCtx) {
		a, blk := rc.st.args[rc.rank], int64(count)*int64(dt.Size())
		rc.copyView(a.recv.View(int64(rc.rank)*blk, blk), a.send.View(0, blk))
		rc.ringAllGatherOver(rc.co.ranks, rc.rank, dt, 0, count*rc.co.n, false, 1)
	}
}

// ReduceScatter reduces count×n elements with op and leaves rank r's
// count-element block in its recv buffer.
func (c *Comm) ReduceScatter(send, recv *device.Buffer, recvCount int, dt Datatype, op RedOp, s *device.Stream) error {
	if err := c.validate("reducescatter", send, recv, recvCount, dt, &op, 0); err != nil {
		return err
	}
	bytes := int64(recvCount) * int64(dt.Size())
	if send.Len() < bytes*int64(c.core.n) {
		return c.invalidArg("reducescatter", "send buffer too small")
	}
	a := c.core.newArgs(send, recv, recvCount, 0)
	algo, chunk := c.resolveAlgo(recvCount)
	c.enqueueColl(s, "reducescatter", a, bytes, func(rc *runCtx) {
		if algo == AlgoHierarchical {
			rc.hierReduceScatter(dt, op, recvCount, chunk)
			return
		}
		// The flat schedule: the ring's reduce-scatter half over all ranks
		// on a scratch copy of send, hop by hop (see ringReduceScatterOver).
		a, n := rc.st.args[rc.rank], rc.co.n
		blk := int64(recvCount) * int64(dt.Size())
		work := rc.dev().MustMallocScratch(blk * int64(n)) // fully written by the copy below
		defer work.Free()
		rc.localCopy(work, a.send, blk*int64(n))
		rc.ringReduceScatterOver(rc.co.ranks, nil, rc.rank, dt, op, work, 0, recvCount*n, false)
		rc.copyView(a.recv.View(0, blk), work.View(int64(rc.rank)*blk, blk))
	})
	return nil
}

func (rc *runCtx) localCopy(dst, src *device.Buffer, n int64) {
	rc.stage(dst, src, 0, n, true)
}

// stage charges the modeled copy of src[off, off+n) into dst at the same
// offset, and moves the bytes only when move is set. The hierarchical
// reductions read a rank's own input from the send buffer in place (see
// treeReduceOver) and keep charging the copy where they used to make it,
// so virtual time is that of the staged schedule. In place (dst == src)
// there is nothing to copy or charge.
func (rc *runCtx) stage(dst, src *device.Buffer, off, n int64, move bool) {
	if dst == src {
		return
	}
	if move {
		copy(dst.Bytes()[off:off+n], src.Bytes()[off:off+n])
	}
	rc.p.Sleep(rc.dev().CopyTime(n))
}

// copyView copies src into dst, one device-local memcpy of src's length.
// Unlike stage it always copies: two views of one range are still a copy.
func (rc *runCtx) copyView(dst, src device.View) {
	copy(dst.Bytes(), src.Bytes())
	rc.p.Sleep(rc.dev().CopyTime(src.Len()))
}

// segment returns the element range [lo, lo+n) of segment s when count
// elements split into m near-equal segments, the first count%m of them one
// element longer.
func segment(count, m, s int) (lo, n int) {
	base, rem := count/m, count%m
	lo, n = s*base+min(s, rem), base
	if s < rem {
		n++
	}
	return lo, n
}

// ringAllReduce stages the input into recv and runs both halves of the
// ring over all ranks, in place in recv. Flat rings run only with
// count ≥ n (fewer elements run the tree), so no segment is empty.
func (rc *runCtx) ringAllReduce(dt Datatype, op RedOp, count int) {
	a := rc.st.args[rc.rank]
	rc.localCopy(a.recv, a.send, int64(count)*int64(dt.Size()))
	slot := rc.ringReduceScatterOver(rc.co.ranks, nil, rc.rank, dt, op, a.recv, 0, count, true)
	rc.ringAllGatherOver(rc.co.ranks, rc.rank, dt, 0, count, rc.st.faithful, slot)
}

// ringSeg returns the byte offset and length of segment s when count
// elements at byte offset base split into m ring segments (see segment).
func ringSeg(base int64, count, m, s int, esz int64) (int64, int64) {
	lo, n := segment(count, m, s)
	return base + int64(lo)*esz, int64(n) * esz
}

// ringReduceScatterOver is the reduce-scatter half of the group ring: count
// elements at byte offset base of this rank's working buffer buf (recv for
// an allreduce, the reduce-scatter's work scratch) split into one segment
// per member, and after m-1 steps member idx holds segment idx reduced; idx
// is this rank's position in group. The flat allreduce and reduce-scatter
// run it over all ranks, the hierarchical leader engine over the node
// leaders, one pipeline chunk at a time. An empty call still sends every
// step, zero bytes each; an empty segment of a non-empty call (a chunk
// shorter than the group) moves nothing. It returns its pipe slot size,
// one segment or one element, which an allreduce's allgather half reuses.
//
// owner allows the owner-computes pass. Only an allreduce sets it: its
// working buffer is every member's recv, and its allgather half keeps
// every member's call open until the pass is done. extra lists ranks
// outside the group whose recv buffers get the result too: nil for the
// flat ring, the non-leaders for the hierarchical engine (see
// hierAllReduce). Every hop keeps its credit, data signal, StepCost, wire
// time and ReduceTime, so the schedule's virtual time is the same in both
// byte regimes of the op (opState.faithful):
//   - Faithful, with owner set: owner computes. The hops are priced and
//     move no bytes. At its last step, the owner of segment k reduces
//     x_k ⊕ (x_{k−1} ⊕ (… ⊕ x_{k+1})) straight from every member's recv
//     segment and writes the result into all of them and into every extra
//     rank's (ownerReduce), the association and operand order of the
//     hop-by-hop ring, so the bytes are identical. That is safe for three
//     reasons. Every member staged its input before it sent its first
//     partial of segment k, so all inputs are in place by the owner's last
//     step. Nothing else writes segment k during the op: no hop moves
//     bytes, and only its owner reduces it. And no member reads it before
//     the value is there: a member's call ends only after its allgather
//     half received segment k, which follows the owner's pass, and nothing
//     reads a member's segment sooner. An extra rank's segment is written
//     after its own input was consumed and read only after its call's end,
//     under the conditions its caller states. An op already aborted (a
//     severed hop, whose result is void) skips the pass.
//   - Otherwise hop by hop, staged: each partial lands in the receiver's
//     slot. Unfaithful ops need real payloads for corruption and CRC
//     retries, and a reduce-scatter's member ends its call after its own
//     last step, while a peer may still reduce, and returns its work
//     scratch to the pool.
func (rc *runCtx) ringReduceScatterOver(group, extra []int, idx int, dt Datatype, op RedOp,
	buf *device.Buffer, base int64, count int, owner bool) int64 {
	m := len(group)
	right := group[(idx+1)%m]
	left := group[(idx-1+m)%m]
	esz := int64(dt.Size())
	fused := owner && rc.st.faithful
	_, n0 := segment(count, m, 0)
	slotBytes := max(int64(n0)*esz, esz)
	hop := staged
	if fused {
		hop = priced
	}
	for step := 0; step < m-1; step++ {
		so, sl := ringSeg(base, count, m, (idx-step-1+2*m)%m, esz)
		ro, rl := ringSeg(base, count, m, (idx-step-2+2*m)%m, esz)
		var sent *sim.Counter
		if sl > 0 || count == 0 {
			sent = rc.putAsync(right, hop, device.View{}, buf.View(so, sl), sl, slotBytes)
		}
		if rl > 0 || count == 0 {
			slot, s := rc.get(left, slotBytes)
			switch {
			case count == 0:
				// Nothing to reduce (see treeReduceOver).
			case !fused:
				rc.reduceInto(op, dt, buf.View(ro, rl), s, int(rl/esz))
			case step == m-2 && !rc.st.aborted:
				rc.ownerReduce(group, extra, idx, dt, op, ro, rl)
				fallthrough
			default:
				rc.p.Sleep(rc.dev().ReduceTime(rl))
			}
			rc.release(left, slot, slotBytes)
		}
		if sent != nil {
			sent.Wait(rc.p)
		}
	}
	return slotBytes
}

// ringAllGatherOver is the allgather half of the group ring: it forwards
// each member's segment of count elements at byte offset base (split as in
// ringReduceScatterOver) around the ring until every member's recv holds
// all of them; idx is this rank's position in group. Each hop places the
// segment at its final offset in the right neighbor's recv (see getPlaced)
// through pipes of slotBytes slots, or, when owned, moves nothing: an
// allreduce's owner pass already wrote every member's segment. The empty
// rule is the reduce-scatter half's.
func (rc *runCtx) ringAllGatherOver(group []int, idx int, dt Datatype, base int64, count int, owned bool, slotBytes int64) {
	m := len(group)
	right := group[(idx+1)%m]
	left := group[(idx-1+m)%m]
	esz := int64(dt.Size())
	recv, rrecv := rc.st.args[rc.rank].recv, rc.st.args[right].recv
	hop := placed
	if owned {
		hop = priced
	}
	for step := 0; step < m-1; step++ {
		so, sl := ringSeg(base, count, m, (idx-step+m)%m, esz)
		_, rl := ringSeg(base, count, m, (idx-step-1+2*m)%m, esz)
		var sent *sim.Counter
		if sl > 0 || count == 0 {
			sent = rc.putAsync(right, hop, rrecv.View(so, sl), recv.View(so, sl), sl, slotBytes)
		}
		if rl > 0 || count == 0 {
			rc.getPlaced(left, rl, slotBytes)
		}
		if sent != nil {
			sent.Wait(rc.p)
		}
	}
}

// ownerReduce is the owner-computes pass of the group ring (see
// ringReduceScatterOver): member idx, the owner of the segment at byte offset
// off and length n of every member's recv buffer, reduces it as the hop-by-
// hop ring would — the partial of member idx+1's input, then each next
// member's own input on the left of the partial it received — and writes
// the result into every member's segment and every extra rank's. It lists
// the members' segments in that order, member idx's first, then the extra
// ranks', on the communicator and makes one elem.ReduceChain call over
// them: F32 and F64 sums read each segment once and store the sum to every
// out from registers, the rest run the pairwise chain through the
// communicator's scratch blocks. It charges no time: the ring's hops
// charge the steps it replaces.
func (rc *runCtx) ownerReduce(group, extra []int, idx int, dt Datatype, op RedOp, off, n int64) {
	co := rc.co
	m := len(group)
	segs := co.chain[:0]
	for i := 0; i < m; i++ {
		segs = append(segs, rc.st.args[group[(idx+i)%m]].recv.Bytes()[off:off+n])
	}
	for _, r := range extra {
		segs = append(segs, rc.st.args[r].recv.Bytes()[off:off+n])
	}
	elem.ReduceChain(op.elemOp(), dt.kind(), segs, segs[:m], int(n/int64(dt.Size())), &co.fuse)
	clear(segs) // hold no member's buffer past the pass
	co.chain = segs
}

// getPlaced consumes a placed put, n bytes already at their final offset in
// this rank's buffer, or a priced one, which moved none: the receiver still
// pays the modeled unpack time of the staged copy and returns the credit,
// but moves no bytes.
//
// Placement is safe in a ring allgather because each segment is written
// once, and causally after the receiver's last access to it. In a per-hop
// ring allreduce that access is the reduce-scatter send of the segment's
// partial; the final value reaches the left neighbor only after that
// partial has travelled on around the ring. In a plain allgather the
// receiver never touches a foreign block before it arrives. After arrival,
// the receiver reads the segment only to forward it, which follows the get.
func (rc *runCtx) getPlaced(from int, n, slotBytes int64) {
	slot, _ := rc.get(from, slotBytes)
	rc.p.Sleep(rc.dev().CopyTime(n))
	rc.release(from, slot, slotBytes)
}

// treeAllReduce: binomial reduce to rank 0 followed by binomial broadcast
// over all ranks — the latency-oriented path for small payloads. An empty
// call still sends every tree step, zero bytes over one-element slots.
func (rc *runCtx) treeAllReduce(dt Datatype, op RedOp, count int) {
	a := rc.st.args[rc.rank]
	esz := int64(dt.Size())
	bytes := int64(count) * esz
	rc.localCopy(a.recv, a.send, bytes)
	rc.treeReduceOver(rc.co.ranks, rc.rank, dt, op, a.recv, comp.RecvBuf, 0, count, max(bytes, esz), true)
	rc.treeBcastOver(rc.co.ranks, rc.rank, 0, 0, bytes, placed)
}

// treeBroadcast copies root's send buffer down a binomial tree over all
// ranks into each rank's recv buffer.
func (rc *runCtx) treeBroadcast(dt Datatype, count int, root int) {
	a := rc.st.args[rc.rank]
	bytes := int64(count) * int64(dt.Size())
	if rc.rank == root {
		rc.localCopy(a.recv, a.send, bytes)
	}
	rc.treeBcastOver(rc.co.ranks, rc.rank, root, 0, bytes, placed)
}

// treeReduceOver runs a binomial reduction of count elements at byte offset
// off over the rank group toward group[0], whose result lands in the
// root's accumulator buf at off; idx is this rank's position in group.
// Every member's input is its src buffer (comp.SendBuf or comp.RecvBuf of
// its args) at the same offset. owner allows the owner-computes pass:
// every caller sets it but Reduce, whose leaf may end its call right after
// its put, before the root's last get, and then reuse its send. Every hop
// keeps its credit, data signal, wire time and ReduceTime, so virtual time
// is the same in both byte regimes of the op (opState.faithful):
//   - Faithful, with owner set: owner computes. The hops are priced and
//     move no bytes, and no member but the root writes anything. At its
//     last child's get the root reduces every member's input in one pass
//     (fanIn), in the association and operand order of the hop-by-hop
//     tree, so the bytes are identical. That is safe for three reasons.
//     Every member's input is in place before the root's last get: the
//     start rendezvous, or on a partitioned handle stageChunk, precedes
//     each member's first put, and every member's put precedes that get.
//     No member's call ends before the pass, so no caller writes an input
//     under it: a leaf waits for the broadcast, or for its leader's
//     delivery in reduce-scatter, and both follow the pass. And no
//     member's accumulator is written, so whatever the schedule writes
//     next there (the broadcast) is the first write. An empty or already
//     aborted op skips the pass.
//   - Otherwise hop by hop, staged: corruption and CRC retries need real
//     payloads, and a Reduce leaf's staged put has copied its input by the
//     time its call ends. A rank's first reduce is out of place, buf =
//     src ⊕ child (in place when src is buf), later ones reduce into buf,
//     and a rank sends its partial, or straight from src when it is a
//     leaf.
func (rc *runCtx) treeReduceOver(group []int, idx int, dt Datatype, op RedOp,
	buf *device.Buffer, src comp.BufRole, off int64, count int, slotBytes int64, owner bool) {
	n := len(group)
	if n <= 1 {
		return
	}
	esz := int64(dt.Size())
	bytes := int64(count) * esz
	fused := owner && rc.st.faithful
	hop := staged
	if fused {
		hop = priced
	}
	in := rc.bufAt(src, rc.rank, off, bytes)
	// mine views this rank's partial once it is in buf: from the start in
	// place, else from its first reduce (the zero view until then).
	var mine device.View
	if in.Buf == buf {
		mine = in
	}
	for mask := 1; mask < n; mask <<= 1 {
		if idx&mask != 0 {
			if mine.Buf == nil {
				mine = in
			}
			rc.putTo(group[idx-mask], hop, device.View{}, mine, bytes, slotBytes)
			return
		}
		if idx+mask < n {
			child := group[idx+mask]
			slot, s := rc.get(child, slotBytes)
			switch {
			case count == 0:
				// Nothing to reduce. A zero-length reduce is not free: its
				// zero-time sleep would still yield the process.
			case fused:
				if idx == 0 && mask<<1 >= n && !rc.st.aborted {
					rc.fanIn(group, dt, op, buf.View(off, bytes), src, count)
				}
				rc.p.Sleep(rc.dev().ReduceTime(bytes))
			case mine.Buf == nil:
				mine = buf.View(off, bytes)
				rc.reduceTo(op, dt, mine, in.Bytes(), s, count)
			default:
				rc.reduceInto(op, dt, mine, s, count)
			}
			rc.release(child, slot, slotBytes)
		}
	}
}

// fanIn is the owner-computes pass of the group binomial reduction (see
// treeReduceOver): the root lists every member's count-element input, its
// src buffer at acc's offset, in group order on the communicator and
// makes one elem.ReduceTree call, which evaluates the tree in cache-sized
// blocks through the communicator's scratch and writes only acc, the
// root's accumulator. It charges no time: the tree's hops charge the steps
// it replaces.
func (rc *runCtx) fanIn(group []int, dt Datatype, op RedOp, acc device.View, src comp.BufRole, count int) {
	co := rc.co
	ins := co.chain[:0]
	for _, r := range group {
		ins = append(ins, rc.bufAt(src, r, acc.Off, acc.N).Bytes())
	}
	elem.ReduceTree(op.elemOp(), dt.kind(), acc.Bytes(), ins, count, &co.fuse)
	clear(ins) // hold no member's buffer past the pass
	co.chain = ins
}

// treeBcastOver broadcasts each rank's recv[off:off+bytes] region down a
// binomial tree over the rank group rooted at group[rootIdx], via direct
// writes into the user buffers (the region is written exactly once) by
// transport how: placed, or priced where an owner pass already wrote every
// member's region (see hierAllReduce); idx is this rank's position in
// group. An empty region still sends every step, zero bytes each.
func (rc *runCtx) treeBcastOver(group []int, idx, rootIdx int, off, bytes int64, how transport) {
	n := len(group)
	rel := (idx - rootIdx + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			rc.waitDirect(group[(rel-mask+rootIdx)%n])
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			child := group[(rel+mask+rootIdx)%n]
			rc.putDirect(child, how, rc.st.args[child].recv.View(off, bytes),
				rc.st.args[rc.rank].recv.View(off, bytes), bytes)
		}
		mask >>= 1
	}
}
