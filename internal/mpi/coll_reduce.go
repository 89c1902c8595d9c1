package mpi

import "mpixccl/internal/device"

// reduceLocal combines src into dst (dst = op(dst, src)) over count
// elements, charging device reduction time.
func (c *Comm) reduceLocal(op Op, dt Datatype, dst, src *device.Buffer, count int) {
	Reduce(op, dt, dst.Bytes(), src.Bytes(), count)
	c.proc.Sleep(c.dev.ReduceTime(int64(count) * int64(dt.Size())))
}

// Reduce combines every rank's sendBuf with op, leaving the result in
// root's recvBuf. Small payloads use a binomial tree; large payloads use
// Rabenseifner's reduce-scatter + binomial gather.
func (c *Comm) Reduce(sendBuf, recvBuf *device.Buffer, count int, dt Datatype, op Op, root int) {
	c.enterColl()
	bytes := int64(count) * int64(dt.Size())
	if c.Size() == 1 {
		if c.rank == root && recvBuf != sendBuf {
			copy(recvBuf.Bytes()[:bytes], sendBuf.Bytes()[:bytes])
		}
		return
	}
	epoch := c.nextEpoch()
	if bytes <= c.ctx.job.profile.ReduceLong || c.Size() == 2 {
		c.reduceBinomial(sendBuf, recvBuf, count, dt, op, root, epoch)
		return
	}
	c.reduceScatterGather(sendBuf, recvBuf, count, dt, op, root, epoch)
}

func (c *Comm) reduceBinomial(sendBuf, recvBuf *device.Buffer, count int, dt Datatype, op Op, root, epoch int) {
	tag := tagOf(epoch, tagReduce)
	n := c.Size()
	esz := int64(dt.Size())
	bytes := int64(count) * esz
	rel := (c.rank - root + n) % n
	// acc accumulates this rank's subtree.
	acc := c.tmp(bytes)
	defer acc.Free()
	copy(acc.Bytes(), sendBuf.Bytes()[:bytes])
	in := c.tmp(bytes)
	defer in.Free()
	mask := 1
	for mask < n {
		if rel&mask == 0 {
			childRel := rel + mask
			if childRel < n {
				child := (childRel + root) % n
				c.Recv(in, count, dt, child, tag)
				c.reduceLocal(op, dt, acc, in, count)
			}
		} else {
			parent := ((rel - mask) + root) % n
			c.Send(acc, count, dt, parent, tag)
			break
		}
		mask <<= 1
	}
	if c.rank == root {
		copy(recvBuf.Bytes()[:bytes], acc.Bytes())
	}
}

// reduceScatterGather is Rabenseifner's large-message reduce: a ring
// reduce-scatter leaves each rank owning the reduced segment for its index,
// then segments are gathered to root.
func (c *Comm) reduceScatterGather(sendBuf, recvBuf *device.Buffer, count int, dt Datatype, op Op, root, epoch int) {
	n := c.Size()
	esz := int64(dt.Size())
	bytes := int64(count) * esz
	segs := segment(count, n)
	work := c.tmp(bytes)
	defer work.Free()
	copy(work.Bytes(), sendBuf.Bytes()[:bytes])
	c.ringReduceScatter(work, segs, dt, op, tagOf(epoch, tagReduceScatter))
	// Gather: every rank sends its owned segment to root.
	tag := tagOf(epoch, tagReduce)
	own := c.rank
	oOff, oLen := segRange(segs, own, own+1, esz)
	if c.rank == root {
		copy(recvBuf.Bytes()[oOff:oOff+oLen], work.Bytes()[oOff:oOff+oLen])
		reqs := make([]*Request, 0, n-1)
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			off, ln := segRange(segs, r, r+1, esz)
			if ln == 0 {
				continue
			}
			reqs = append(reqs, c.Irecv(recvBuf.Slice(off, ln), int(ln/esz), dt, r, tag))
		}
		c.Waitall(reqs)
		return
	}
	if oLen > 0 {
		c.Send(work.Slice(oOff, oLen), int(oLen/esz), dt, root, tag)
	}
}

// ringReduceScatter runs the ring reduce-scatter phase in place on work:
// after n-1 steps, rank r holds the fully reduced segment r.
func (c *Comm) ringReduceScatter(work *device.Buffer, segs []int, dt Datatype, op Op, tag int) {
	n := c.Size()
	esz := int64(dt.Size())
	if n == 1 {
		return
	}
	right := (c.rank + 1) % n
	left := (c.rank - 1 + n) % n
	maxSeg := int64(segs[1]-segs[0]) * esz
	in := c.tmp(maxSeg + esz)
	defer in.Free()
	for step := 0; step < n-1; step++ {
		// Indexed so that after n-1 steps rank r owns segment r reduced.
		sendSeg := (c.rank - step - 1 + 2*n) % n
		recvSeg := (c.rank - step - 2 + 2*n) % n
		so, sl := segRange(segs, sendSeg, sendSeg+1, esz)
		ro, rl := segRange(segs, recvSeg, recvSeg+1, esz)
		c.Sendrecv(work.Slice(so, sl), int(sl/esz), dt, right, tag,
			in.Slice(0, rl), int(rl/esz), dt, left, tag)
		if rl > 0 {
			c.reduceLocal(op, dt, work.Slice(ro, rl), in.Slice(0, rl), int(rl/esz))
		}
	}
}

// ringAllgatherSegs runs the ring allgather phase. Rank r starts owning
// segment (r−rot) mod n: segment r, as ringReduceScatter leaves it, when
// rot is 0, and its position relative to the root when Bcast passes the
// root. After n-1 steps every rank holds all segments. A step whose send
// and receive segments are both empty is skipped; only Bcast can have
// empty segments, since Allgather's hold count > 0 elements each and
// allreduceRing runs only when count >= n.
func (c *Comm) ringAllgatherSegs(work *device.Buffer, segs []int, dt Datatype, tag, rot int) {
	n := c.Size()
	esz := int64(dt.Size())
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
		c.Sendrecv(work.Slice(so, sl), int(sl/esz), dt, right, tag,
			work.Slice(ro, rl), int(rl/esz), dt, left, tag)
	}
}

// Allreduce combines every rank's sendBuf with op and leaves the full
// result in every rank's recvBuf. Small payloads use recursive doubling;
// large payloads use the ring (reduce-scatter + allgather) algorithm.
func (c *Comm) Allreduce(sendBuf, recvBuf *device.Buffer, count int, dt Datatype, op Op) {
	c.enterColl()
	bytes := int64(count) * int64(dt.Size())
	if recvBuf != sendBuf {
		copy(recvBuf.Bytes()[:bytes], sendBuf.Bytes()[:bytes])
	}
	if c.Size() == 1 || count == 0 {
		return
	}
	epoch := c.nextEpoch()
	if bytes <= c.ctx.job.profile.AllreduceLong || c.Size() == 2 || count < c.Size() {
		c.allreduceRecDoubling(recvBuf, count, dt, op, epoch)
		return
	}
	c.allreduceRing(recvBuf, count, dt, op, epoch)
}

// allreduceRecDoubling is the latency-optimal log2(n) algorithm, operating
// in place on buf (which already holds this rank's contribution).
func (c *Comm) allreduceRecDoubling(buf *device.Buffer, count int, dt Datatype, op Op, epoch int) {
	tag := tagOf(epoch, tagAllreduce)
	n := c.Size()
	bytes := int64(count) * int64(dt.Size())
	in := c.tmp(bytes)
	defer in.Free()

	pof2 := 1
	for pof2*2 <= n {
		pof2 *= 2
	}
	rem := n - pof2
	newRank := -1
	switch {
	case c.rank < 2*rem && c.rank%2 == 0:
		// Fold: evens below 2*rem hand their data to the odd neighbor.
		c.Send(buf, count, dt, c.rank+1, tag)
	case c.rank < 2*rem:
		c.Recv(in, count, dt, c.rank-1, tag)
		c.reduceLocal(op, dt, buf, in, count)
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
			c.Sendrecv(buf, count, dt, peer, tag, in, count, dt, peer, tag)
			c.reduceLocal(op, dt, buf, in, count)
		}
	}
	// Unfold: odds return the result to their even neighbor.
	switch {
	case c.rank < 2*rem && c.rank%2 == 0:
		c.Recv(buf, count, dt, c.rank+1, tag)
	case c.rank < 2*rem:
		c.Send(buf, count, dt, c.rank-1, tag)
	}
}

// allreduceRing is the bandwidth-optimal algorithm: ring reduce-scatter
// followed by ring allgather, in place on buf.
func (c *Comm) allreduceRing(buf *device.Buffer, count int, dt Datatype, op Op, epoch int) {
	segs := segment(count, c.Size())
	c.ringReduceScatter(buf, segs, dt, op, tagOf(epoch, tagReduceScatter))
	c.ringAllgatherSegs(buf, segs, dt, tagOf(epoch, tagAllgather), 0)
}

// ReduceScatterBlock reduces count×n elements with op and scatters the
// result: rank r receives elements [r·count, (r+1)·count) into recvBuf.
func (c *Comm) ReduceScatterBlock(sendBuf, recvBuf *device.Buffer, count int, dt Datatype, op Op) {
	c.enterColl()
	n := c.Size()
	esz := int64(dt.Size())
	total := count * n
	work := c.tmp(int64(total) * esz)
	defer work.Free()
	copy(work.Bytes(), sendBuf.Bytes()[:int64(total)*esz])
	segs := segment(total, n)
	c.ringReduceScatter(work, segs, dt, op, tagOf(c.nextEpoch(), tagReduceScatter))
	off, ln := segRange(segs, c.rank, c.rank+1, esz)
	copy(recvBuf.Bytes()[:ln], work.Bytes()[off:off+ln])
	c.proc.Sleep(c.dev.CopyTime(ln))
}
