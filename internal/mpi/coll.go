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

// tmp allocates collective scratch space on the rank's device.
func (c *Comm) tmp(bytes int64) *device.Buffer {
	return c.dev.MustMalloc(bytes)
}

func (c *Comm) enterColl() {
	c.proc.Sleep(c.ctx.job.profile.CollOverhead)
}

// Barrier blocks until every rank of the communicator has entered it
// (dissemination algorithm: ⌈log2 n⌉ rounds of pairwise signals).
func (c *Comm) Barrier() {
	c.enterColl()
	tag := tagOf(c.nextEpoch(), tagBarrier)
	n := c.Size()
	if n == 1 {
		return
	}
	token := c.tmp(1)
	defer token.Free()
	scratch := c.tmp(1)
	defer scratch.Free()
	for k := 1; k < n; k <<= 1 {
		dst := (c.rank + k) % n
		src := (c.rank - k + n) % n
		c.Sendrecv(token, 1, Byte, dst, tag, scratch, 1, Byte, src, tag)
	}
}

// Bcast broadcasts count elements from root's buf to every rank's buf.
// Small payloads use a binomial tree; large payloads use the van de Geijn
// scatter + ring-allgather algorithm.
func (c *Comm) Bcast(buf *device.Buffer, count int, dt Datatype, root int) {
	c.enterColl()
	bytes := int64(count) * int64(dt.Size())
	if c.Size() == 1 || count == 0 {
		return
	}
	epoch := c.nextEpoch()
	if bytes <= c.ctx.job.profile.BcastLong || c.Size() == 2 {
		c.bcastBinomial(buf, count, dt, root, epoch)
		return
	}
	c.bcastScatterRing(buf, count, dt, root, epoch)
}

func (c *Comm) bcastBinomial(buf *device.Buffer, count int, dt Datatype, root, epoch int) {
	tag := tagOf(epoch, tagBcast)
	n := c.Size()
	rel := (c.rank - root + n) % n
	// Receive once from the parent, then forward down the tree.
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			src := (c.rank - mask + n) % n
			c.Recv(buf, count, dt, src, tag)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			dst := (c.rank + mask) % n
			c.Send(buf, count, dt, dst, tag)
		}
		mask >>= 1
	}
}

func (c *Comm) bcastScatterRing(buf *device.Buffer, count int, dt Datatype, root, epoch int) {
	// Scatter the payload binomially, then ring-allgather the pieces.
	n := c.Size()
	esz := int64(dt.Size())
	segs := segment(count, n)
	// Phase 1: binomial scatter of segments relative to root.
	tag := tagOf(epoch, tagBcast)
	rel := (c.rank - root + n) % n
	// recvLow/recvHigh is the relative-rank segment range this rank holds.
	low, high := 0, n
	mask := nextPow2(n)
	for mask > 1 {
		mask >>= 1
		mid := low + mask
		if mid >= high {
			continue
		}
		if rel < mid { // this rank owns the lower half; send upper half away
			if rel == low {
				off, ln := segRange(segs, mid, high, esz)
				if ln > 0 {
					c.Send(buf.Slice(off, ln), int(ln/esz), dt, (low+mask+root)%n, tag)
				}
			}
			high = mid
		} else {
			if rel == mid {
				off, ln := segRange(segs, mid, high, esz)
				if ln > 0 {
					c.Recv(buf.Slice(off, ln), int(ln/esz), dt, (low+root)%n, tag)
				}
			}
			low = mid
		}
	}
	// Phase 2: ring allgather of the n segments, indexed relative to root.
	c.ringAllgatherSegs(buf, segs, dt, tag, root)
}

// segment splits count elements into n contiguous ranges, returning the
// start element of each range plus a final sentinel (len n+1).
func segment(count, n int) []int {
	bounds := make([]int, n+1)
	base, rem := count/n, count%n
	off := 0
	for i := 0; i < n; i++ {
		bounds[i] = off
		off += base
		if i < rem {
			off++
		}
	}
	bounds[n] = count
	return bounds
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
	c.enterColl()
	tag := tagOf(c.nextEpoch(), tagGather)
	n := c.Size()
	esz := int64(dt.Size())
	bytes := int64(count) * esz
	if c.rank == root {
		if recvBuf.Len() < bytes*int64(n) {
			panic(fmt.Sprintf("mpi: gather recv buffer %d < %d", recvBuf.Len(), bytes*int64(n)))
		}
		copy(recvBuf.Bytes()[int64(root)*bytes:(int64(root)+1)*bytes], sendBuf.Bytes()[:bytes])
		c.proc.Sleep(c.dev.CopyTime(bytes))
		reqs := make([]*Request, 0, n-1)
		for r := 0; r < n; r++ {
			if r == root {
				continue
			}
			reqs = append(reqs, c.Irecv(recvBuf.Slice(int64(r)*bytes, bytes), count, dt, r, tag))
		}
		c.Waitall(reqs)
		return
	}
	c.Send(sendBuf, count, dt, root, tag)
}

// Scatter distributes root's sendBuf (laid out by rank) so each rank
// receives count elements into recvBuf. sendBuf may be nil on non-roots.
func (c *Comm) Scatter(sendBuf *device.Buffer, count int, dt Datatype, recvBuf *device.Buffer, root int) {
	c.enterColl()
	tag := tagOf(c.nextEpoch(), tagScatter)
	n := c.Size()
	bytes := int64(count) * int64(dt.Size())
	if c.rank == root {
		reqs := make([]*Request, 0, n-1)
		for r := 0; r < n; r++ {
			if r == root {
				copy(recvBuf.Bytes()[:bytes], sendBuf.Bytes()[int64(r)*bytes:(int64(r)+1)*bytes])
				c.proc.Sleep(c.dev.CopyTime(bytes))
				continue
			}
			reqs = append(reqs, c.Isend(sendBuf.Slice(int64(r)*bytes, bytes), count, dt, r, tag))
		}
		c.Waitall(reqs)
		return
	}
	c.Recv(recvBuf, count, dt, root, tag)
}
