package mpi

import (
	"fmt"

	"mpixccl/internal/device"
)

// Allgather concatenates count elements from every rank into every rank's
// recvBuf, laid out by rank. Small payloads use the Bruck algorithm
// (⌈log2 n⌉ rounds); large payloads use the bandwidth-optimal ring.
func (c *Comm) Allgather(sendBuf *device.Buffer, count int, dt Datatype, recvBuf *device.Buffer) {
	c.enterColl()
	n := c.Size()
	esz := int64(dt.Size())
	bytes := int64(count) * esz
	if recvBuf.Len() < bytes*int64(n) {
		panic(fmt.Sprintf("mpi: allgather recv buffer %d < %d", recvBuf.Len(), bytes*int64(n)))
	}
	copy(recvBuf.Bytes()[int64(c.rank)*bytes:(int64(c.rank)+1)*bytes], sendBuf.Bytes()[:bytes])
	if n == 1 || count == 0 {
		return
	}
	epoch := c.nextEpoch()
	if bytes <= c.ctx.job.profile.AllgatherLong {
		c.allgatherBruck(recvBuf, count, dt, epoch)
		return
	}
	segs := make([]int, n+1)
	for i := range segs {
		segs[i] = i * count
	}
	c.ringAllgatherSegs(recvBuf, segs, dt, tagOf(epoch, tagAllgather), 0)
}

// allgatherBruck runs Bruck's allgather: data is kept rotated so that each
// rank's own block is first, doubling the gathered prefix every round,
// then rotated back into rank order.
func (c *Comm) allgatherBruck(recvBuf *device.Buffer, count int, dt Datatype, epoch int) {
	tag := tagOf(epoch, tagAllgather)
	n := c.Size()
	esz := int64(dt.Size())
	bytes := int64(count) * esz
	work := c.tmp(bytes * int64(n))
	defer work.Free()
	// Start with own block first.
	copy(work.Bytes()[:bytes], recvBuf.Bytes()[int64(c.rank)*bytes:(int64(c.rank)+1)*bytes])
	have := 1
	for pof := 1; pof < n; pof <<= 1 {
		sendCnt := have
		if sendCnt > n-have {
			sendCnt = n - have
		}
		dst := (c.rank - pof + n) % n
		src := (c.rank + pof) % n
		c.Sendrecv(work.Slice(0, int64(sendCnt)*bytes), sendCnt*count, dt, dst, tag,
			work.Slice(int64(have)*bytes, int64(sendCnt)*bytes), sendCnt*count, dt, src, tag)
		have += sendCnt
	}
	// Rotate block i of work (which is rank (rank+i)%n's data) into place.
	for i := 0; i < n; i++ {
		r := (c.rank + i) % n
		copy(recvBuf.Bytes()[int64(r)*bytes:(int64(r)+1)*bytes], work.Bytes()[int64(i)*bytes:(int64(i)+1)*bytes])
	}
	c.proc.Sleep(c.dev.CopyTime(bytes * int64(n)))
}

// Alltoall sends block r of sendBuf to rank r and receives block s from
// rank s into recvBuf (count elements per block). Small payloads use the
// Bruck algorithm; large payloads use pairwise exchange.
func (c *Comm) Alltoall(sendBuf *device.Buffer, count int, dt Datatype, recvBuf *device.Buffer) {
	c.enterColl()
	n := c.Size()
	esz := int64(dt.Size())
	bytes := int64(count) * esz
	copy(recvBuf.Bytes()[int64(c.rank)*bytes:(int64(c.rank)+1)*bytes],
		sendBuf.Bytes()[int64(c.rank)*bytes:(int64(c.rank)+1)*bytes])
	if n == 1 || count == 0 {
		return
	}
	epoch := c.nextEpoch()
	if bytes <= c.ctx.job.profile.AlltoallLong {
		c.alltoallBruck(sendBuf, recvBuf, count, dt, epoch)
		return
	}
	c.alltoallPairwise(sendBuf, recvBuf, count, dt, epoch)
}

// alltoallPairwise exchanges with peer rank^^step (XOR for power-of-two
// sizes, ring offsets otherwise), n-1 rounds of full-duplex transfers.
func (c *Comm) alltoallPairwise(sendBuf, recvBuf *device.Buffer, count int, dt Datatype, epoch int) {
	tag := tagOf(epoch, tagAlltoall)
	n := c.Size()
	bytes := int64(count) * int64(dt.Size())
	pow2 := n&(n-1) == 0
	for step := 1; step < n; step++ {
		var sendTo, recvFrom int
		if pow2 {
			sendTo = c.rank ^ step
			recvFrom = sendTo
		} else {
			sendTo = (c.rank + step) % n
			recvFrom = (c.rank - step + n) % n
		}
		c.Sendrecv(sendBuf.Slice(int64(sendTo)*bytes, bytes), count, dt, sendTo, tag,
			recvBuf.Slice(int64(recvFrom)*bytes, bytes), count, dt, recvFrom, tag)
	}
}

// alltoallBruck is the log-round small-message algorithm: blocks are
// rotated, exchanged by bit of the round index, and rotated back.
func (c *Comm) alltoallBruck(sendBuf, recvBuf *device.Buffer, count int, dt Datatype, epoch int) {
	tag := tagOf(epoch, tagAlltoall)
	n := c.Size()
	bytes := int64(count) * int64(dt.Size())
	// Both scratch buffers are written before they are read: work by the
	// rotation below, stage by each round's packing and receive.
	work := c.dev.MustMallocScratch(bytes * int64(n))
	defer work.Free()
	stage := c.dev.MustMallocScratch(bytes * int64(n))
	defer stage.Free()
	block := func(b *device.Buffer, i int) []byte {
		return b.Bytes()[int64(i)*bytes : int64(i+1)*bytes]
	}
	// Local rotation: work[i] = sendBuf[(rank+i) mod n].
	for i := 0; i < n; i++ {
		copy(block(work, i), block(sendBuf, (c.rank+i)%n))
	}
	c.proc.Sleep(c.dev.CopyTime(bytes * int64(n)))
	for pof := 1; pof < n; pof <<= 1 {
		// Pack the m blocks whose index has bit pof set, in index order.
		m := 0
		for i := pof; i < n; i++ {
			if i&pof != 0 {
				copy(block(stage, m), block(work, i))
				m++
			}
		}
		dst := (c.rank + pof) % n
		src := (c.rank - pof + n) % n
		c.Sendrecv(stage.Slice(0, int64(m)*bytes), m*count, dt, dst, tag,
			stage.Slice(int64(m)*bytes, int64(m)*bytes), m*count, dt, src, tag)
		for i, j := pof, m; i < n; i++ {
			if i&pof != 0 {
				copy(block(work, i), block(stage, j))
				j++
			}
		}
		c.proc.Sleep(c.dev.CopyTime(2 * bytes * int64(m)))
	}
	// Inverse rotation: recvBuf[r] = work[(rank-r) mod n] reversed ordering.
	for i := 0; i < n; i++ {
		copy(block(recvBuf, (c.rank-i+n)%n), block(work, i))
	}
	c.proc.Sleep(c.dev.CopyTime(bytes * int64(n)))
}

// Alltoallv is the fully general personalized exchange of Listing 1:
// sendCounts[r] elements at element displacement sdispls[r] go to rank r;
// recvCounts[s] elements arrive at rdispls[s]. Implemented as posted
// receives plus nonblocking sends (the same shape as the xCCL group-call
// design it is compared with).
func (c *Comm) Alltoallv(sendBuf *device.Buffer, sendCounts, sdispls []int, dt Datatype,
	recvBuf *device.Buffer, recvCounts, rdispls []int) {
	c.enterColl()
	tag := tagOf(c.nextEpoch(), tagAlltoall)
	n := c.Size()
	esz := int64(dt.Size())
	reqs := make([]*Request, 0, 2*n)
	for r := 0; r < n; r++ {
		if r == c.rank {
			continue
		}
		if recvCounts[r] > 0 {
			off := int64(rdispls[r]) * esz
			ln := int64(recvCounts[r]) * esz
			reqs = append(reqs, c.Irecv(recvBuf.Slice(off, ln), recvCounts[r], dt, r, tag))
		}
	}
	for i := 1; i <= n; i++ {
		r := (c.rank + i) % n
		if r == c.rank {
			// Self block: local copy.
			if sendCounts[c.rank] > 0 {
				so := int64(sdispls[c.rank]) * esz
				ro := int64(rdispls[c.rank]) * esz
				ln := int64(sendCounts[c.rank]) * esz
				copy(recvBuf.Bytes()[ro:ro+ln], sendBuf.Bytes()[so:so+ln])
				c.proc.Sleep(c.dev.CopyTime(ln))
			}
			continue
		}
		if sendCounts[r] > 0 {
			off := int64(sdispls[r]) * esz
			ln := int64(sendCounts[r]) * esz
			reqs = append(reqs, c.Isend(sendBuf.Slice(off, ln), sendCounts[r], dt, r, tag))
		}
	}
	c.Waitall(reqs)
}
