package mpi

import "mpixccl/internal/device"

// Reduce combines every rank's sendBuf with op, leaving the result in
// root's recvBuf. Small payloads use a binomial tree; large payloads use
// Rabenseifner's reduce-scatter + binomial gather.
func (c *Comm) Reduce(sendBuf, recvBuf *device.Buffer, count int, dt Datatype, op Op, root int) {
	g := c.coll(dt)
	g.op = op
	bytes := int64(count) * int64(dt.Size())
	send := sendBuf.View(0, bytes)
	var recv device.View // root's only: recvBuf may be nil elsewhere
	if c.rank == root {
		recv = recvBuf.View(0, bytes)
	}
	switch {
	case c.Size() == 1:
		if c.rank == root && recvBuf != sendBuf {
			g.copy(recv, send)
		}
	case bytes <= c.ctx.job.profile.ReduceLong || c.Size() == 2:
		g.reduceBinomial(send, recv, root, tagOf(c.nextEpoch(), tagReduce))
	default:
		g.reduceScatterGather(send, recv, count, root, c.nextEpoch())
	}
	g.run()
}

func (g *collProg) reduceBinomial(send, recv device.View, root, tag int) {
	c := g.c
	n := c.Size()
	rel := (c.rank - root + n) % n
	// acc accumulates this rank's subtree: the copy below writes all of it.
	acc := g.alloc(send.N)
	g.copy(acc, send)
	// in is written by each child's receive before the reduce reads it.
	in := g.alloc(send.N)
	for mask := 1; mask < n; mask <<= 1 {
		if rel&mask != 0 {
			g.send(acc, ((rel-mask)+root)%n, tag)
			break
		}
		if childRel := rel + mask; childRel < n {
			g.recv(in, (childRel+root)%n, tag)
			g.reduce(acc, in)
		}
	}
	if c.rank == root {
		g.copy(recv, acc)
	}
}

// reduceScatterGather is Rabenseifner's large-message reduce: a ring
// reduce-scatter leaves each rank owning the reduced segment for its index,
// then segments are gathered to root.
func (g *collProg) reduceScatterGather(send, recv device.View, count, root, epoch int) {
	c := g.c
	n := c.Size()
	esz := g.esz
	segs := g.segment(count)
	// work is the reduction's buffer: the copy below writes all of it.
	work := g.alloc(send.N)
	g.copy(work, send)
	g.ringReduceScatter(work, segs, tagOf(epoch, tagReduceScatter))
	// Gather: every rank sends its owned segment to root.
	tag := tagOf(epoch, tagReduce)
	oOff, oLen := segRange(segs, c.rank, c.rank+1, esz)
	if c.rank == root {
		g.copy(recv.Sub(oOff, oLen), work.Sub(oOff, oLen))
		for r := 0; r < n; r++ {
			if off, ln := segRange(segs, r, r+1, esz); r != root && ln > 0 {
				g.irecv(recv.Sub(off, ln), r, tag)
			}
		}
		g.waitall()
	} else if oLen > 0 {
		g.send(work.Sub(oOff, oLen), root, tag)
	}
}

// ringReduceScatter runs the ring reduce-scatter phase in place on work:
// after n-1 steps, rank r holds the fully reduced segment r.
func (g *collProg) ringReduceScatter(work device.View, segs []int, tag int) {
	c := g.c
	n := c.Size()
	esz := g.esz
	if n == 1 {
		return
	}
	right := (c.rank + 1) % n
	left := (c.rank - 1 + n) % n
	// in is written by each step's receive before its reduce reads it.
	in := g.alloc(int64(segs[1]-segs[0])*esz + esz)
	for step := 0; step < n-1; step++ {
		// Indexed so that after n-1 steps rank r owns segment r reduced.
		sendSeg := (c.rank - step - 1 + 2*n) % n
		recvSeg := (c.rank - step - 2 + 2*n) % n
		so, sl := segRange(segs, sendSeg, sendSeg+1, esz)
		ro, rl := segRange(segs, recvSeg, recvSeg+1, esz)
		g.sendrecv(work.Sub(so, sl), right, in.Sub(0, rl), left, tag)
		if rl > 0 {
			g.reduce(work.Sub(ro, rl), in.Sub(0, rl))
		}
	}
}

// ringAllgatherSegs runs the ring allgather phase. Rank r starts owning
// segment (r−rot) mod n: segment r, as ringReduceScatter leaves it, when
// rot is 0, and its position relative to the root when Bcast passes the
// root. After n-1 steps every rank holds all segments. A step whose send
// and receive segments are both empty is skipped; only Bcast can have
// empty segments, since Allgather's hold count > 0 elements each and
// the ring allreduce runs only when count >= n.
func (g *collProg) ringAllgatherSegs(work device.View, segs []int, tag, rot int) {
	c := g.c
	n := c.Size()
	esz := g.esz
	right := (c.rank + 1) % n
	left := (c.rank - 1 + n) % n
	own := (c.rank - rot + n) % n
	for step := 0; step < n-1; step++ {
		sendSeg := (own - step + n) % n
		recvSeg := (own - step - 1 + n) % n
		so, sl := segRange(segs, sendSeg, sendSeg+1, esz)
		ro, rl := segRange(segs, recvSeg, recvSeg+1, esz)
		if sl == 0 && rl == 0 {
			continue
		}
		g.sendrecv(work.Sub(so, sl), right, work.Sub(ro, rl), left, tag)
	}
}

// Allreduce combines every rank's sendBuf with op and leaves the full
// result in every rank's recvBuf. Small payloads use recursive doubling;
// large payloads use the ring (reduce-scatter + allgather) algorithm.
func (c *Comm) Allreduce(sendBuf, recvBuf *device.Buffer, count int, dt Datatype, op Op) {
	g := c.coll(dt)
	g.op = op
	bytes := int64(count) * int64(dt.Size())
	buf := recvBuf.View(0, bytes)
	if recvBuf != sendBuf {
		g.copy(buf, sendBuf.View(0, bytes))
	}
	if n := c.Size(); n > 1 && count > 0 {
		epoch := c.nextEpoch()
		if bytes <= c.ctx.job.profile.AllreduceLong || n == 2 || count < n {
			g.allreduceRecDoubling(buf, tagOf(epoch, tagAllreduce))
		} else {
			// The ring: reduce-scatter, then allgather, in place on buf.
			segs := g.segment(count)
			g.ringReduceScatter(buf, segs, tagOf(epoch, tagReduceScatter))
			g.ringAllgatherSegs(buf, segs, tagOf(epoch, tagAllgather), 0)
		}
	}
	g.run()
}

// allreduceRecDoubling is the latency-optimal log2(n) algorithm, operating
// in place on buf (which already holds this rank's contribution).
func (g *collProg) allreduceRecDoubling(buf device.View, tag int) {
	c := g.c
	n := c.Size()
	// in is written by each receive before the reduce that follows it.
	in := g.alloc(buf.N)

	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	newRank := -1
	switch {
	case c.rank < 2*rem && c.rank%2 == 0:
		// Fold: evens below 2*rem hand their data to the odd neighbor.
		g.send(buf, c.rank+1, tag)
	case c.rank < 2*rem:
		g.recv(in, c.rank-1, tag)
		g.reduce(buf, in)
		newRank = c.rank / 2
	default:
		newRank = c.rank - rem
	}
	if newRank >= 0 {
		for mask := 1; mask < pof2; mask <<= 1 {
			peerNew := newRank ^ mask
			peer := peerNew + rem
			if peerNew < rem {
				peer = peerNew*2 + 1
			}
			g.sendrecv(buf, peer, in, peer, tag)
			g.reduce(buf, in)
		}
	}
	// Unfold: odds return the result to their even neighbor.
	switch {
	case c.rank < 2*rem && c.rank%2 == 0:
		g.recv(buf, c.rank+1, tag)
	case c.rank < 2*rem:
		g.send(buf, c.rank-1, tag)
	}
}

// ReduceScatterBlock reduces count×n elements with op and scatters the
// result: rank r receives elements [r·count, (r+1)·count) into recvBuf.
func (c *Comm) ReduceScatterBlock(sendBuf, recvBuf *device.Buffer, count int, dt Datatype, op Op) {
	g := c.coll(dt)
	g.op = op
	esz := int64(dt.Size())
	total := count * c.Size()
	// work is the reduction's buffer: the copy below writes all of it.
	work := g.alloc(int64(total) * esz)
	g.copy(work, sendBuf.View(0, work.N))
	segs := g.segment(total)
	g.ringReduceScatter(work, segs, tagOf(c.nextEpoch(), tagReduceScatter))
	off, ln := segRange(segs, c.rank, c.rank+1, esz)
	g.copy(recvBuf.View(0, ln), work.Sub(off, ln))
	g.sleep(c.dev.CopyTime(ln))
	g.run()
}
