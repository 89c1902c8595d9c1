package mpi

import (
	"fmt"

	"mpixccl/internal/device"
)

// Allgather concatenates count elements from every rank into every rank's
// recvBuf, laid out by rank. Small payloads use the Bruck algorithm
// (⌈log2 n⌉ rounds); large payloads use the bandwidth-optimal ring.
func (c *Comm) Allgather(sendBuf *device.Buffer, count int, dt Datatype, recvBuf *device.Buffer) {
	g := c.coll(dt)
	n := c.Size()
	bytes := int64(count) * int64(dt.Size())
	if recvBuf.Len() < bytes*int64(n) {
		panic(fmt.Sprintf("mpi: allgather recv buffer %d < %d", recvBuf.Len(), bytes*int64(n)))
	}
	recv := recvBuf.View(0, bytes*int64(n))
	g.copy(recv.Sub(int64(c.rank)*bytes, bytes), sendBuf.View(0, bytes))
	if n > 1 && count > 0 {
		epoch := c.nextEpoch()
		if bytes <= c.ctx.job.profile.AllgatherLong {
			g.allgatherBruck(recv, bytes, tagOf(epoch, tagAllgather))
		} else { // the ring over n equal segments, one per rank's block
			g.ringAllgatherSegs(recv, g.segment(count*n), tagOf(epoch, tagAllgather), 0)
		}
	}
	g.run()
}

// allgatherBruck runs Bruck's allgather: data is kept rotated so that each
// rank's own block is first, doubling the gathered prefix every round,
// then rotated back into rank order.
func (g *collProg) allgatherBruck(recv device.View, bytes int64, tag int) {
	c := g.c
	n := c.Size()
	// work is written whole: block 0 below, the rest by the rounds' receives.
	work := g.alloc(bytes * int64(n))
	// Start with own block first.
	g.copy(work.Sub(0, bytes), recv.Sub(int64(c.rank)*bytes, bytes))
	have := 1
	for pof := 1; pof < n; pof <<= 1 {
		cnt := int64(min(have, n-have))
		g.sendrecv(work.Sub(0, cnt*bytes), (c.rank-pof+n)%n, work.Sub(int64(have)*bytes, cnt*bytes), (c.rank+pof)%n, tag)
		have += int(cnt)
	}
	// Rotate block i of work (which is rank (rank+i)%n's data) into place.
	for i := 0; i < n; i++ {
		g.copy(recv.Sub(int64((c.rank+i)%n)*bytes, bytes), work.Sub(int64(i)*bytes, bytes))
	}
	g.sleep(c.dev.CopyTime(bytes * int64(n)))
}

// Alltoall sends block r of sendBuf to rank r and receives block s from
// rank s into recvBuf (count elements per block). Small payloads use the
// Bruck algorithm; large payloads use pairwise exchange.
func (c *Comm) Alltoall(sendBuf *device.Buffer, count int, dt Datatype, recvBuf *device.Buffer) {
	g := c.coll(dt)
	n := c.Size()
	bytes := int64(count) * int64(dt.Size())
	send, recv := sendBuf.View(0, bytes*int64(n)), recvBuf.View(0, bytes*int64(n))
	g.copy(recv.Sub(int64(c.rank)*bytes, bytes), send.Sub(int64(c.rank)*bytes, bytes))
	if n > 1 && count > 0 {
		epoch := c.nextEpoch()
		if bytes <= c.ctx.job.profile.AlltoallLong {
			g.alltoallBruck(send, recv, bytes, tagOf(epoch, tagAlltoall))
		} else {
			g.alltoallPairwise(send, recv, bytes, tagOf(epoch, tagAlltoall))
		}
	}
	g.run()
}

// alltoallPairwise exchanges with peer rank^^step (XOR for power-of-two
// sizes, ring offsets otherwise), n-1 rounds of full-duplex transfers.
func (g *collProg) alltoallPairwise(send, recv device.View, bytes int64, tag int) {
	c := g.c
	n := c.Size()
	pow2 := n&(n-1) == 0
	for step := 1; step < n; step++ {
		sendTo, recvFrom := (c.rank+step)%n, (c.rank-step+n)%n
		if pow2 {
			sendTo = c.rank ^ step
			recvFrom = sendTo
		}
		g.sendrecv(send.Sub(int64(sendTo)*bytes, bytes), sendTo, recv.Sub(int64(recvFrom)*bytes, bytes), recvFrom, tag)
	}
}

// alltoallBruck is the log-round small-message algorithm: blocks are
// rotated, exchanged by bit of the round index, and rotated back.
func (g *collProg) alltoallBruck(send, recv device.View, bytes int64, tag int) {
	c := g.c
	n := c.Size()
	// Both scratch buffers are written before they are read: work by the
	// rotation below, stage by each round's packing and receive.
	work, stage := g.alloc(bytes*int64(n)), g.alloc(bytes*int64(n))
	block := func(v device.View, i int) device.View { return v.Sub(int64(i)*bytes, bytes) }
	// Local rotation: work[i] = send[(rank+i) mod n].
	for i := 0; i < n; i++ {
		g.copy(block(work, i), block(send, (c.rank+i)%n))
	}
	g.sleep(c.dev.CopyTime(bytes * int64(n)))
	for pof := 1; pof < n; pof <<= 1 {
		// Pack the m blocks whose index has bit pof set, in index order.
		m := 0
		for i := pof; i < n; i++ {
			if i&pof != 0 {
				g.copy(block(stage, m), block(work, i))
				m++
			}
		}
		g.sendrecv(stage.Sub(0, int64(m)*bytes), (c.rank+pof)%n, stage.Sub(int64(m)*bytes, int64(m)*bytes), (c.rank-pof+n)%n, tag)
		for i, j := pof, m; i < n; i++ {
			if i&pof != 0 {
				g.copy(block(work, i), block(stage, j))
				j++
			}
		}
		g.sleep(c.dev.CopyTime(2 * bytes * int64(m)))
	}
	// Inverse rotation: recv[r] = work[(rank-r) mod n] reversed ordering.
	for i := 0; i < n; i++ {
		g.copy(block(recv, (c.rank-i+n)%n), block(work, i))
	}
	g.sleep(c.dev.CopyTime(bytes * int64(n)))
}

// Alltoallv is the fully general personalized exchange of Listing 1:
// sendCounts[r] elements at element displacement sdispls[r] go to rank r;
// recvCounts[s] elements arrive at rdispls[s]. Implemented as posted
// receives plus nonblocking sends (the same shape as the xCCL group-call
// design it is compared with).
func (c *Comm) Alltoallv(sendBuf *device.Buffer, sendCounts, sdispls []int, dt Datatype,
	recvBuf *device.Buffer, recvCounts, rdispls []int) {
	g := c.coll(dt)
	tag := tagOf(c.nextEpoch(), tagAlltoall)
	n := c.Size()
	esz := int64(dt.Size())
	view := func(b *device.Buffer, displ, count int) device.View {
		return b.View(int64(displ)*esz, int64(count)*esz)
	}
	for r := 0; r < n; r++ {
		if r != c.rank && recvCounts[r] > 0 {
			g.irecv(view(recvBuf, rdispls[r], recvCounts[r]), r, tag)
		}
	}
	for i := 1; i <= n; i++ {
		r := (c.rank + i) % n
		switch {
		case sendCounts[r] == 0:
		case r == c.rank: // self block: local copy
			g.copy(view(recvBuf, rdispls[r], sendCounts[r]), view(sendBuf, sdispls[r], sendCounts[r]))
			g.sleep(c.dev.CopyTime(int64(sendCounts[r]) * esz))
		default:
			g.isend(view(sendBuf, sdispls[r], sendCounts[r]), r, tag)
		}
	}
	g.waitall()
	g.run()
}
