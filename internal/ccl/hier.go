package ccl

import (
	"cmp"
	"fmt"
	"sort"

	"mpixccl/internal/ccl/comp"
	"mpixccl/internal/sim"
)

// Topology-aware hierarchical collectives: the NCCL-style decomposition
// where the payload is combined within each node over the fast intra-node
// fabric first, only the node leaders exchange over the slow inter-node
// links, and the result fans back out inside each node. Payloads are split
// into fixed-size chunks that flow through the three phases as a software
// pipeline, so the inter-node exchange of chunk k overlaps the intra-node
// work of chunk k+1 (the leader feeds chunks to its inter-node engine,
// hierEngine). The tree and ring phases are the group schedules the flat
// collectives run over all ranks (treeReduceOver, treeBcastOver and the
// ring's two halves, ringReduceScatterOver and ringAllGatherOver), here
// over a node's ranks, the node leaders, or the per-node broadcast
// representatives. All data movement reuses the credit-managed scratch
// pipes; intra-node, leader-leader, and fan-out hops use disjoint directed
// pipe keys, so the phases never contend for each other's flow-control
// credits.

// Algorithm selects a collective schedule family. The zero value (AlgoAuto)
// keeps the backend's built-in size-based ring/tree split; the dispatch
// layer forces a specific family per tuned size band (core.TuningTable v2).
type Algorithm int

const (
	// AlgoAuto is the backend default: tree below TreeThreshold, flat ring
	// above, custom MSCCL schedules when registered.
	AlgoAuto Algorithm = iota
	// AlgoFlatRing forces the flat (topology-blind) ring.
	AlgoFlatRing
	// AlgoTree forces the latency-oriented binomial tree.
	AlgoTree
	// AlgoHierarchical forces the two-level node-leader decomposition with
	// chunked pipelining. Degenerates to AlgoAuto when the communicator does
	// not span multiple nodes (or no node holds more than one rank), so a
	// tuned table built on a multi-node shape stays safe on any shape.
	AlgoHierarchical
)

// String names the algorithm as the tuning table spells it.
func (a Algorithm) String() string {
	switch a {
	case AlgoFlatRing:
		return "flat-ring"
	case AlgoTree:
		return "tree"
	case AlgoHierarchical:
		return "hierarchical"
	}
	return "auto"
}

// MarshalText spells the algorithm as String does (tuning tables omit
// AlgoAuto).
func (a Algorithm) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// UnmarshalText reads a tuning table's algorithm name: "" and "auto" read
// as AlgoAuto, any other unknown name is an error.
func (a *Algorithm) UnmarshalText(b []byte) error {
	name := cmp.Or(string(b), "auto")
	for c := AlgoAuto; c <= AlgoHierarchical; c++ {
		if name == c.String() {
			*a = c
			return nil
		}
	}
	return fmt.Errorf("xccl: unknown algorithm %q", b)
}

// defaultHierChunkBytes is the pipeline chunk used when neither the caller
// nor the backend Config picks one.
const defaultHierChunkBytes = 1 << 20

// SetAlgorithm forces the schedule family (and hierarchical pipeline chunk;
// 0 = Config.HierChunkBytes) for this rank handle's subsequent collectives.
// AlgoAuto restores the backend default. The dispatch layer calls this with
// the tuned table's per-size-band choice; all ranks must agree per call,
// which holds because the choice is a pure function of (op, payload size).
func (c *Comm) SetAlgorithm(a Algorithm, chunkBytes int64) {
	c.algo = a
	c.algoChunk = chunkBytes
}

// Algorithm reports the forced schedule family and chunk override.
func (c *Comm) Algorithm() (Algorithm, int64) { return c.algo, c.algoChunk }

// hierChunk resolves the pipeline chunk size for this call.
func (c *Comm) hierChunk() int64 {
	if c.algoChunk > 0 {
		return c.algoChunk
	}
	if c.core.cfg.HierChunkBytes > 0 {
		return c.core.cfg.HierChunkBytes
	}
	return defaultHierChunkBytes
}

// hierPlan is the communicator's node hierarchy, read from device placement
// (device.Node): one leader per node plus per-rank positions. Built once
// and cached on the shared core — devices never move after NewComms.
type hierPlan struct {
	// ok reports the shape hierarchy helps: several nodes, and at least one
	// node holding more than one rank.
	ok bool
	// leaders holds one leader rank per node, in node-id order.
	leaders []int
	// locals[i] lists the comm ranks on node i (same node order), ascending.
	locals [][]int
	// others lists every rank that leads no node, ascending: the extra
	// outputs of the leader ring's owner passes (see hierAllReduce).
	others []int
	// nodeIdx[r] is rank r's node index into leaders/locals.
	nodeIdx []int
	// localIdx[r] is rank r's position within locals[nodeIdx[r]].
	localIdx []int
	// reps[root] is hierBroadcast's representative group for a root that
	// is not its node's leader (see repsFor); built on first use.
	reps [][]int
}

// repsFor returns the broadcast representatives for root, one per node:
// the node leaders, with root standing in for its own node's leader.
func (hp *hierPlan) repsFor(root int) []int {
	ni := hp.nodeIdx[root]
	if hp.leaders[ni] == root {
		return hp.leaders
	}
	if hp.reps == nil {
		hp.reps = make([][]int, len(hp.nodeIdx))
	}
	if hp.reps[root] == nil {
		reps := append([]int(nil), hp.leaders...)
		reps[ni] = root
		hp.reps[root] = reps
	}
	return hp.reps[root]
}

// hier returns (building on first use) the cached node plan.
func (co *core) hier() *hierPlan {
	if co.hierCache != nil {
		return co.hierCache
	}
	byNode := map[int][]int{}
	for r := 0; r < co.n; r++ {
		n := co.devs[r].Node
		byNode[n] = append(byNode[n], r)
	}
	nodes := make([]int, 0, len(byNode))
	for n := range byNode {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	hp := &hierPlan{
		nodeIdx:  make([]int, co.n),
		localIdx: make([]int, co.n),
	}
	packed := false
	for i, n := range nodes {
		ranks := byNode[n]
		hp.leaders = append(hp.leaders, ranks[0])
		hp.locals = append(hp.locals, ranks)
		if len(ranks) > 1 {
			packed = true
		}
		for j, r := range ranks {
			hp.nodeIdx[r] = i
			hp.localIdx[r] = j
		}
	}
	for r, j := range hp.localIdx {
		if j != 0 {
			hp.others = append(hp.others, r)
		}
	}
	hp.ok = len(nodes) > 1 && packed
	co.hierCache = hp
	return hp
}

// chunkRange returns the element range [lo, lo+n) of chunk ck when count
// elements are cut into ce-element chunks.
func chunkRange(count, ce, ck int) (lo, n int) {
	lo = ck * ce
	n = count - lo
	if n > ce {
		n = ce
	}
	return lo, n
}

// hierAllReduce is the three-phase pipelined allreduce: per chunk, a
// binomial intra-node reduction into the node leader (phase A), a ring
// allreduce over the leader group (phase B, on the leader's hierEngine so it
// overlaps phase A of the next chunk), and a binomial intra-node broadcast
// (phase C) as soon as the ring delivers the chunk.
//
// On a faithful op each segment's owner in the leader ring also writes its
// result into every non-leader's recv (the ring's extra outputs), so the
// fan-out is priced and moves no bytes. That is safe for two reasons.
// Every rank's call ends after every owner pass of every chunk: a
// non-leader's ends after its leader's fan-out of the last chunk, which
// waits for the leader ring of that chunk, and that ring ends after all of
// its owner passes. And a non-leader's chunk input was consumed before any
// owner pass of the chunk writes its recv, even in place: its node's
// fan-in (phase A) read it before its leader fed the chunk to the ring.
func (rc *runCtx) hierAllReduce(dt Datatype, op RedOp, count int, chunkBytes int64) {
	hp := rc.co.hier()
	a := rc.st.args[rc.rank]
	esz := int64(dt.Size())
	locals := hp.locals[hp.nodeIdx[rc.rank]]
	li := hp.localIdx[rc.rank]
	// The fan-in reads every rank's input from send in place (see
	// treeReduceOver), so staging it into recv only charges the copy,
	// except at a one-rank node's leader, which reduces nothing and must
	// copy. A partition-gated persistent schedule stages each chunk as its
	// partition becomes ready (stageChunk below); everything else stages
	// the whole payload up front.
	lone := len(locals) == 1
	if rc.gate == nil {
		rc.stage(a.recv, a.send, 0, int64(count)*esz, lone)
	}
	m := len(hp.leaders)
	ce := int(chunkBytes / esz)
	if ce < 1 {
		ce = 1
	}
	nchunks := (count + ce - 1) / ce
	slotBytes := int64(ce) * esz
	fanOut := placed
	if rc.st.faithful && m > 1 {
		fanOut = priced
	}

	if li != 0 {
		// Non-leader: feed chunks up the intra tree, then receive results.
		for ck := 0; ck < nchunks; ck++ {
			lo, cn := chunkRange(count, ce, ck)
			rc.stageChunk(a, int64(lo)*esz, int64(cn)*esz, ck, lone)
			rc.treeReduceOver(locals, li, dt, op, a.recv, comp.SendBuf, int64(lo)*esz, cn, slotBytes, true)
		}
		rc.waitAllParts()
		for ck := 0; ck < nchunks; ck++ {
			lo, cn := chunkRange(count, ce, ck)
			rc.treeBcastOver(locals, li, 0, int64(lo)*esz, int64(cn)*esz, fanOut)
		}
		return
	}

	// Leader: the inter-node engine runs the leader ring per chunk
	// as chunks are fed, so chunk k's inter-node exchange overlaps chunk
	// k+1's intra-node reduction.
	var eng *hierEngine
	if m > 1 {
		eng = rc.engine(hp, dt, op, count, ce, nchunks)
	}
	for ck := 0; ck < nchunks; ck++ {
		lo, cn := chunkRange(count, ce, ck)
		rc.stageChunk(a, int64(lo)*esz, int64(cn)*esz, ck, lone)
		rc.treeReduceOver(locals, li, dt, op, a.recv, comp.SendBuf, int64(lo)*esz, cn, slotBytes, true)
		if eng != nil {
			eng.feed()
		}
	}
	rc.waitAllParts()
	for ck := 0; ck < nchunks; ck++ {
		if eng != nil {
			eng.done[ck].Wait(rc.p)
		}
		lo, cn := chunkRange(count, ce, ck)
		rc.treeBcastOver(locals, li, 0, int64(lo)*esz, int64(cn)*esz, fanOut)
	}
}

// hierEngine is a hierarchical leader's inter-node engine: it runs the
// leader ring of each chunk the leader feeds it, in feed order, as one job
// on the rank's resident workers (see helperJob). There is one per
// (communicator, leader stream process), holding one call's state; the
// stream runs one task at a time, so calls use it one after another. The
// first feed of a call posts the engine, so it starts in the (time, seq)
// slot at which an engine spawned per call would take chunk 0. Its own
// asynchronous sends go to the same workers under its own latch.
type hierEngine struct {
	rc    runCtx              // co fixed; st, rank, gate and chunk set per call, p per run
	ready *sim.Chan[struct{}] // unbuffered: wakes the engine parked for a chunk
	fed   int                 // chunks fed this call
	done  []*sim.Event        // done[ck]: chunk ck's leader ring completed
	// The call's parameters, set before chunk 0 is fed.
	hp                 *hierPlan
	dt                 Datatype
	op                 RedOp
	count, ce, nchunks int
}

// engine readies the engine of rc's process for one call of nchunks
// chunks, creating it on first use.
func (rc *runCtx) engine(hp *hierPlan, dt Datatype, op RedOp, count, ce, nchunks int) *hierEngine {
	co, k := rc.co, rc.p.Kernel()
	e := co.engines[rc.p]
	if e == nil {
		e = &hierEngine{rc: runCtx{co: co}, ready: sim.NewChan[struct{}](k, 0)}
		co.engines[rc.p] = e
	}
	e.rc.st, e.rc.rank, e.rc.gate, e.rc.chunk = rc.st, rc.rank, rc.gate, rc.chunk
	e.hp, e.dt, e.op, e.count, e.ce, e.nchunks = hp, dt, op, count, ce, nchunks
	e.fed = 0
	for len(e.done) < nchunks {
		e.done = append(e.done, sim.NewEvent(k))
	}
	for _, ev := range e.done[:nchunks] {
		ev.Reset()
	}
	return e
}

// run is the engine's job for one call, on worker p.
func (e *hierEngine) run(p *sim.Proc) {
	e.rc.p = p
	for ck := 0; ck < e.nchunks; ck++ {
		for ck == e.fed {
			e.ready.Recv(p)
		}
		lo, cn := chunkRange(e.count, e.ce, ck)
		rc, idx, base := &e.rc, e.hp.nodeIdx[e.rc.rank], int64(lo)*int64(e.dt.Size())
		slot := rc.ringReduceScatterOver(e.hp.leaders, e.hp.others, idx, e.dt, e.op, rc.st.args[rc.rank].recv, base, cn, true)
		rc.ringAllGatherOver(e.hp.leaders, idx, e.dt, base, cn, rc.st.faithful, slot)
		e.done[ck].Fire()
	}
}

// feed hands the engine the next chunk: the first chunk of a call posts
// the engine; later ones wake it if it is parked, and a busy engine takes
// the chunk when it next looks.
func (e *hierEngine) feed() {
	e.fed++
	if e.fed == 1 {
		co := e.rc.co
		co.workers[e.rc.rank].Post(co.fab.Kernel(), helperJob{eng: e})
		return
	}
	e.ready.TrySend(struct{}{})
}

// hierBroadcast: per chunk, a binomial broadcast over one representative
// per node (the root stands in for its node's leader), then a binomial
// fan-out within each node. Chunking lets the fan-out of chunk k overlap
// the inter-node hop of chunk k+1 as a wave pipeline.
func (rc *runCtx) hierBroadcast(dt Datatype, count, root int, chunkBytes int64) {
	hp := rc.co.hier()
	a := rc.st.args[rc.rank]
	esz := int64(dt.Size())
	if rc.rank == root {
		rc.localCopy(a.recv, a.send, int64(count)*esz)
	}
	rootNode := hp.nodeIdx[root]
	reps := hp.repsFor(root)
	locals := hp.locals[hp.nodeIdx[rc.rank]]
	li := hp.localIdx[rc.rank]
	// My node's representative position within locals (root may not be the
	// leader on its own node).
	repIdx := 0
	if hp.nodeIdx[rc.rank] == rootNode {
		repIdx = hp.localIdx[root]
	}
	isRep := rc.rank == reps[hp.nodeIdx[rc.rank]]
	ce := int(chunkBytes / esz)
	if ce < 1 {
		ce = 1
	}
	nchunks := (count + ce - 1) / ce
	for ck := 0; ck < nchunks; ck++ {
		lo, cn := chunkRange(count, ce, ck)
		off, bytes := int64(lo)*esz, int64(cn)*esz
		if isRep {
			rc.treeBcastOver(reps, hp.nodeIdx[rc.rank], rootNode, off, bytes, placed)
		}
		rc.treeBcastOver(locals, li, repIdx, off, bytes, placed)
	}
}

// hierAllGather: local blocks gather at the node leader (direct writes at
// their final offsets), leaders ring-forward whole node block-sets, and
// each leader fans the assembled buffer out to its node in pipeline chunks.
func (rc *runCtx) hierAllGather(dt Datatype, count int, chunkBytes int64) {
	hp := rc.co.hier()
	a := rc.st.args[rc.rank]
	esz := int64(dt.Size())
	blk := int64(count) * esz
	rc.copyView(a.recv.View(int64(rc.rank)*blk, blk), a.send.View(0, blk))
	ni := hp.nodeIdx[rc.rank]
	locals := hp.locals[ni]
	li := hp.localIdx[rc.rank]
	leader := locals[0]
	m := len(hp.leaders)

	if li != 0 {
		// Phase A: deliver my block straight into the leader's recv at its
		// final offset, then wait for the assembled result (phase C).
		rc.putDirect(leader, placed, rc.st.args[leader].recv.View(int64(rc.rank)*blk, blk),
			a.recv.View(int64(rc.rank)*blk, blk), blk)
		rc.hierAllGatherFanOut(locals, li, int64(rc.co.n)*blk, chunkBytes)
		return
	}
	for _, r := range locals[1:] {
		rc.waitDirect(r)
	}
	// Phase B: m-1 ring steps; step s forwards the block-set of node
	// (idx-s) to the right while receiving node (idx-s-1) from the left.
	// Sends run on a resident worker so the ring stays full duplex.
	if m > 1 {
		right := hp.leaders[(ni+1)%m]
		left := hp.leaders[(ni-1+m)%m]
		for step := 0; step < m-1; step++ {
			srcNode := (ni - step + m) % m
			inNode := (ni - step - 1 + 2*m) % m
			sent := rc.post(helperJob{to: right, how: placed, dst: rc.st.args[right].recv.Whole(), src: a.recv.Whole(), n: blk,
				blocks: hp.locals[srcNode]})
			for range hp.locals[inNode] {
				rc.waitDirect(left)
			}
			sent.Wait(rc.p)
		}
	}
	// Phase C: fan the fully assembled buffer out within the node.
	rc.hierAllGatherFanOut(locals, li, int64(rc.co.n)*blk, chunkBytes)
}

// hierAllGatherFanOut is allgather's phase C, the leader's chunked
// intra-node broadcast of the whole assembled recv buffer (re-sending a
// rank its own block is harmless and keeps every chunk a contiguous direct
// write).
func (rc *runCtx) hierAllGatherFanOut(locals []int, li int, total int64, chunkBytes int64) {
	if len(locals) <= 1 {
		return
	}
	if chunkBytes < 1 {
		chunkBytes = 1
	}
	for off := int64(0); off < total; off += chunkBytes {
		bytes := total - off
		if bytes > chunkBytes {
			bytes = chunkBytes
		}
		rc.treeBcastOver(locals, li, 0, off, bytes, placed)
	}
}

// hierReduceScatter: chunked intra-node tree reduction of the full payload
// into the node leader, a leader ring reduce-scatter at node block-set
// granularity, then each leader delivers its local ranks' reduced blocks.
func (rc *runCtx) hierReduceScatter(dt Datatype, op RedOp, recvCount int, chunkBytes int64) {
	hp := rc.co.hier()
	a := rc.st.args[rc.rank]
	n := rc.co.n
	esz := int64(dt.Size())
	blk := int64(recvCount) * esz
	total := blk * int64(n)
	ni := hp.nodeIdx[rc.rank]
	locals := hp.locals[ni]
	li := hp.localIdx[rc.rank]
	m := len(hp.leaders)
	// A leader's work is written before it is read: by phase A's fan-in
	// of each chunk (every rank's input is read from send in place, so
	// staging it only charges the copy), or, at a one-rank node's leader,
	// which reduces nothing, by the copy here. Leaves never touch it, nor,
	// on a faithful op, does any other non-leader (see treeReduceOver).
	work := rc.dev().MustMallocScratch(total)
	defer work.Free()
	rc.stage(work, a.send, 0, total, len(locals) == 1)

	// Phase A: chunked binomial reduction of the whole payload to the leader.
	ce := int(chunkBytes / esz)
	if ce < 1 {
		ce = 1
	}
	totalCount := recvCount * n
	nchunks := (totalCount + ce - 1) / ce
	slotBytes := int64(ce) * esz
	for ck := 0; ck < nchunks; ck++ {
		lo, cn := chunkRange(totalCount, ce, ck)
		rc.treeReduceOver(locals, li, dt, op, work, comp.SendBuf, int64(lo)*esz, cn, slotBytes, true)
	}

	if li != 0 {
		rc.waitDirect(locals[0])
		return
	}
	// Phase B: ring reduce-scatter over leaders; the segments are node
	// block-sets (one slot-pipelined put per member block, so uneven nodes
	// exchange unequal step volumes without extra synchronization).
	if m > 1 {
		right := hp.leaders[(ni+1)%m]
		left := hp.leaders[(ni-1+m)%m]
		for step := 0; step < m-1; step++ {
			sendNode := (ni - step - 1 + 2*m) % m
			recvNode := (ni - step - 2 + 2*m) % m
			// Staged: work returns to the pool while the last
			// receiver may still be reading it.
			sent := rc.post(helperJob{to: right, src: work.Whole(), n: blk, blocks: hp.locals[sendNode]})
			for _, r := range hp.locals[recvNode] {
				slot, buf := rc.get(left, blk)
				rc.reduceInto(op, dt, work.View(int64(r)*blk, blk), buf, recvCount)
				rc.release(left, slot, blk)
			}
			sent.Wait(rc.p)
		}
	}
	// Phase C: deliver each local rank's reduced block.
	for _, r := range locals[1:] {
		rc.putDirect(r, placed, rc.st.args[r].recv.View(0, blk), work.View(int64(r)*blk, blk), blk)
	}
	rc.copyView(a.recv.View(0, blk), work.View(int64(rc.rank)*blk, blk))
}
