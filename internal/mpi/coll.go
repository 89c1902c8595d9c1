package mpi

import (
	"fmt"

	"mpixccl/internal/device"
)

// Internal tag space for collective traffic, disjoint from user tags by
// convention (user code should use small non-negative tags).
const collTagBase = 1 << 20

// Collective type ids for tag construction.
const (
	tagBarrier = iota
	tagBcast
	tagReduce
	tagAllreduce
	tagAllgather
	tagAlltoall
	tagGather
	tagScatter
	tagReduceScatter
)

// nextEpoch allocates the sequence number for one public collective call.
// Every rank calls collectives on a communicator in the same order, so
// epochs agree across ranks; combined with per-phase type ids (tagOf),
// concurrent collectives on the same communicator cannot cross-match.
// Epochs are allocated at call time, which is what lets nonblocking
// collectives execute later on a progress process and still match.
func (c *Comm) nextEpoch() int {
	e := c.collSeq
	c.collSeq++
	return e
}

// tagOf builds the wire tag for phase op of collective call #epoch.
func tagOf(epoch, op int) int {
	return collTagBase + (epoch%(1<<14))*16 + op
}

// Barrier blocks until every rank of the communicator has entered it
// (dissemination algorithm: ⌈log2 n⌉ rounds of pairwise signals).
func (c *Comm) Barrier() {
	g := c.coll(Byte)
	tag := tagOf(c.nextEpoch(), tagBarrier)
	if n := c.Size(); n > 1 {
		// No one reads the signals' byte: neither buffer needs a value.
		token, scratch := g.alloc(1), g.alloc(1)
		for k := 1; k < n; k <<= 1 {
			g.sendrecv(token, (c.rank+k)%n, scratch, (c.rank-k+n)%n, tag)
		}
	}
	g.run()
}

// Bcast broadcasts count elements from root's buf to every rank's buf.
// Small payloads use a binomial tree; large payloads use the van de Geijn
// scatter + ring-allgather algorithm.
func (c *Comm) Bcast(buf *device.Buffer, count int, dt Datatype, root int) {
	g := c.coll(dt)
	bytes := int64(count) * int64(dt.Size())
	if c.Size() > 1 && count > 0 {
		tag := tagOf(c.nextEpoch(), tagBcast)
		if bytes <= c.ctx.job.profile.BcastLong || c.Size() == 2 {
			g.bcastBinomial(buf.View(0, bytes), root, tag)
		} else {
			g.bcastScatterRing(buf.View(0, bytes), count, root, tag)
		}
	}
	g.run()
}

func (g *collProg) bcastBinomial(buf device.View, root, tag int) {
	c := g.c
	n := c.Size()
	rel := (c.rank - root + n) % n
	// Receive once from the parent, then forward down the tree.
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			g.recv(buf, (c.rank-mask+n)%n, tag)
			break
		}
		mask <<= 1
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			g.send(buf, (c.rank+mask)%n, tag)
		}
	}
}

func (g *collProg) bcastScatterRing(buf device.View, count, root, tag int) {
	// Scatter the payload binomially, then ring-allgather the pieces.
	c := g.c
	n := c.Size()
	esz := g.esz
	segs := g.segment(count)
	// Phase 1: binomial scatter of segments relative to root.
	rel := (c.rank - root + n) % n
	// low/high is the relative-rank segment range this rank holds.
	low, high := 0, n
	mask := nextPow2(n)
	for mask > 1 {
		mask >>= 1
		mid := low + mask
		if mid >= high {
			continue
		}
		off, ln := segRange(segs, mid, high, esz)
		if rel < mid { // this rank owns the lower half; send upper half away
			if rel == low && ln > 0 {
				g.send(buf.Sub(off, ln), (low+mask+root)%n, tag)
			}
			high = mid
		} else {
			if rel == mid && ln > 0 {
				g.recv(buf.Sub(off, ln), (low+root)%n, tag)
			}
			low = mid
		}
	}
	// Phase 2: ring allgather of the n segments, indexed relative to root.
	g.ringAllgatherSegs(buf, segs, tag, root)
}

// segRange maps segment range [a,b) to a byte (offset, length) in the
// full buffer.
func segRange(bounds []int, a, b int, esz int64) (off, ln int64) {
	if a >= b {
		return 0, 0
	}
	start, end := bounds[a], bounds[b]
	return int64(start) * esz, int64(end-start) * esz
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Gather collects count elements from every rank's sendBuf into root's
// recvBuf (laid out by rank). recvBuf may be nil on non-root ranks.
func (c *Comm) Gather(sendBuf *device.Buffer, count int, dt Datatype, recvBuf *device.Buffer, root int) {
	g := c.coll(dt)
	tag := tagOf(c.nextEpoch(), tagGather)
	n := c.Size()
	bytes := int64(count) * int64(dt.Size())
	if c.rank == root {
		if recvBuf.Len() < bytes*int64(n) {
			panic(fmt.Sprintf("mpi: gather recv buffer %d < %d", recvBuf.Len(), bytes*int64(n)))
		}
		g.copy(recvBuf.View(int64(root)*bytes, bytes), sendBuf.View(0, bytes))
		g.sleep(c.dev.CopyTime(bytes))
		for r := 0; r < n; r++ {
			if r != root {
				g.irecv(recvBuf.View(int64(r)*bytes, bytes), r, tag)
			}
		}
		g.waitall()
	} else {
		g.send(sendBuf.View(0, bytes), root, tag)
	}
	g.run()
}

// Scatter distributes root's sendBuf (laid out by rank) so each rank
// receives count elements into recvBuf. sendBuf may be nil on non-roots.
func (c *Comm) Scatter(sendBuf *device.Buffer, count int, dt Datatype, recvBuf *device.Buffer, root int) {
	g := c.coll(dt)
	tag := tagOf(c.nextEpoch(), tagScatter)
	n := c.Size()
	bytes := int64(count) * int64(dt.Size())
	if c.rank == root {
		for r := 0; r < n; r++ {
			if r == root {
				g.copy(recvBuf.View(0, bytes), sendBuf.View(int64(r)*bytes, bytes))
				g.sleep(c.dev.CopyTime(bytes))
			} else {
				g.isend(sendBuf.View(int64(r)*bytes, bytes), r, tag)
			}
		}
		g.waitall()
	} else {
		g.recv(recvBuf.View(0, bytes), root, tag)
	}
	g.run()
}
