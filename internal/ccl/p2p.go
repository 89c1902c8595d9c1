package ccl

import (
	"errors"
	"fmt"

	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
)

// p2pChan returns the posting channel for messages src→dst. CCL p2p has no
// tags: sends and receives between a pair match strictly in order.
func (co *core) p2pChan(src, dst int) *sim.Chan[*p2pSlot] {
	key := [2]int{src, dst}
	ch, ok := co.p2pPost[key]
	if !ok {
		ch = sim.NewChan[*p2pSlot](co.fab.Kernel(), 4096)
		co.p2pPost[key] = ch
	}
	return ch
}

func (c *Comm) validateP2P(opName string, buf *device.Buffer, count int, dt Datatype, peer int) error {
	cfg := &c.core.cfg
	if err := c.inject(opName); err != nil {
		return err
	}
	if count < 0 {
		return &Error{Backend: cfg.Name, Result: ErrInvalidArgument, Op: opName, Rank: c.rank,
			Msg: "negative count"}
	}
	if peer < 0 || peer >= c.core.n {
		return &Error{Backend: cfg.Name, Result: ErrInvalidArgument, Op: opName, Rank: c.rank,
			Msg: fmt.Sprintf("peer %d out of range", peer)}
	}
	if !cfg.Datatypes[dt] {
		return &Error{Backend: cfg.Name, Result: ErrUnsupportedDatatype, Op: opName, Rank: c.rank,
			Msg: fmt.Sprintf("datatype %v not supported", dt)}
	}
	if buf == nil {
		return &Error{Backend: cfg.Name, Result: ErrInvalidArgument, Op: opName, Rank: c.rank,
			Msg: "nil buffer"}
	}
	if int64(count)*int64(dt.Size()) > buf.Len() {
		return &Error{Backend: cfg.Name, Result: ErrInvalidArgument, Op: opName, Rank: c.rank,
			Msg: "buffer too small"}
	}
	return nil
}

// runSend executes one send: wait for the peer's posted receive, move the
// bytes, signal completion. With the watchdog armed, a receive that is
// never posted (fail-stopped peer) resolves to an ErrRankDead verdict.
func (co *core) runSend(p *sim.Proc, rank int, op p2pOp) error {
	slot, ok := co.p2pChan(rank, op.peer).RecvTimeout(p, co.watchdog)
	if !ok {
		return co.deadVerdict("send", p.Now())
	}
	if slot.bytes < op.bytes {
		panic(fmt.Sprintf("ccl: send of %d bytes into %d-byte posted recv", op.bytes, slot.bytes))
	}
	co.countXfer(op.bytes)
	_, err := co.fab.TryTransfer(p, slot.buf.View(0, op.bytes), op.buf.View(0, op.bytes), op.bytes,
		co.fabOpts())
	if err != nil {
		if !errors.Is(err, fabric.ErrPartitioned) {
			panic(err)
		}
		// The route is severed: fire the peer's completion anyway so the
		// posted receive resolves in bounded time, and report the verdict —
		// the caller raises it as this rank's async error.
		slot.done.Fire()
		return co.severedVerdict(p.Now())
	}
	slot.done.Fire()
	return nil
}

// Send transmits count elements to peer on the stream. Outside a group it
// enqueues immediately; inside a group it is deferred to GroupEnd.
// CCL p2p matches by order per pair — there are no tags (§3.3).
func (c *Comm) Send(buf *device.Buffer, count int, dt Datatype, peer int, s *device.Stream) error {
	if err := c.validateP2P("send", buf, count, dt, peer); err != nil {
		return err
	}
	op := p2pOp{peer: peer, buf: buf, bytes: int64(count) * int64(dt.Size())}
	if c.group != nil {
		c.group.sends = append(c.group.sends, op)
		c.group.stream = s
		return nil
	}
	co := c.core
	rank := c.rank
	s.Enqueue(func(p *sim.Proc) {
		co.countLaunch("p2p")
		c.delay(p, "send")
		p.Sleep(co.cfg.Launch)
		if err := co.runSend(p, rank, op); err != nil {
			c.raiseAsync(err)
		}
	})
	return nil
}

// Recv posts a receive of count elements from peer on the stream; deferred
// to GroupEnd inside a group.
func (c *Comm) Recv(buf *device.Buffer, count int, dt Datatype, peer int, s *device.Stream) error {
	if err := c.validateP2P("recv", buf, count, dt, peer); err != nil {
		return err
	}
	op := p2pOp{peer: peer, buf: buf, bytes: int64(count) * int64(dt.Size())}
	if c.group != nil {
		c.group.recvs = append(c.group.recvs, op)
		c.group.stream = s
		return nil
	}
	co := c.core
	rank := c.rank
	s.Enqueue(func(p *sim.Proc) {
		co.countLaunch("p2p")
		c.delay(p, "recv")
		p.Sleep(co.cfg.Launch)
		slot := &p2pSlot{buf: op.buf, bytes: op.bytes, done: sim.NewEvent(p.Kernel())}
		if !co.p2pChan(op.peer, rank).SendTimeout(p, slot, co.watchdog) ||
			!slot.done.WaitTimeout(p, co.watchdog) {
			c.raiseAsync(co.deadVerdict("recv", p.Now()))
		}
	})
	return nil
}

// GroupStart begins batching Send/Recv calls on this rank handle
// (xcclGroupStart). Groups fuse the batched operations into one stream
// task: all receives are posted first, then sends run concurrently — the
// mechanism that makes Listing 1's AlltoAllv deadlock-free.
func (c *Comm) GroupStart() error {
	if c.group != nil {
		return &Error{Backend: c.core.cfg.Name, Result: ErrInvalidArgument, Msg: "nested group"}
	}
	c.group = &groupOps{}
	return nil
}

// GroupEnd enqueues the batched operations as one fused task (xcclGroupEnd).
func (c *Comm) GroupEnd() error {
	if c.group == nil {
		return &Error{Backend: c.core.cfg.Name, Result: ErrInvalidArgument, Msg: "group end without start"}
	}
	g := c.group
	c.group = nil
	msgs := len(g.sends) > 0 || len(g.recvs) > 0
	if !msgs && g.ownDst.N == 0 {
		return nil
	}
	if g.stream == nil {
		return &Error{Backend: c.core.cfg.Name, Result: ErrInvalidArgument, Msg: "group with no stream"}
	}
	if !msgs {
		// Only exchange's own-block copy: no launch, no time.
		g.stream.Enqueue(func(*sim.Proc) { g.copyOwn() })
		return nil
	}
	co := c.core
	rank := c.rank

	g.stream.Enqueue(func(p *sim.Proc) {
		g.copyOwn()
		// One launch for the whole fused group: this is why group calls
		// beat per-message launches.
		co.countLaunch("group")
		co.countGroup(len(g.sends) + len(g.recvs))
		c.delay(p, "group")
		p.Sleep(co.cfg.Launch)
		k := p.Kernel()
		// Post every receive first (non-blocking), so no send can wait
		// on a receive that is queued behind it.
		slots := make([]*p2pSlot, len(g.recvs))
		for i, op := range g.recvs {
			slots[i] = &p2pSlot{buf: op.buf, bytes: op.bytes, done: sim.NewEvent(k)}
			if !co.p2pChan(op.peer, rank).SendTimeout(p, slots[i], co.watchdog) {
				c.raiseAsync(co.deadVerdict("group", p.Now()))
			}
		}
		// Run sends concurrently on the rank's resident workers; link
		// contention serializes them physically. A send to a dead peer
		// holds its worker until the watchdog gives a verdict (or forever,
		// disarmed), and the pool grows past it.
		counter := sim.NewCounter(k, len(g.sends))
		for _, op := range g.sends {
			co.workers[rank].Post(k, helperJob{group: c, to: op.peer, src: op.buf.Whole(), n: op.bytes, done: counter})
		}
		// Each timed wait is bounded on its own (the sends and posted
		// receives carry per-wait deadlines), so the fused task as a whole
		// resolves in bounded virtual time too.
		if !counter.WaitTimeout(p, 2*co.watchdog) {
			c.raiseAsync(co.deadVerdict("group", p.Now()))
		}
		for _, slot := range slots {
			if !slot.done.WaitTimeout(p, co.watchdog) {
				c.raiseAsync(co.deadVerdict("group", p.Now()))
			}
		}
	})
	return nil
}

// exchange is the send-recv synthesis of §3.3, Listing 1's pattern: inside
// one group call it copies the rank's own block from send into recv, sends
// each peer the block of send that blocks names and receives the block of
// recv it names. blocks reports, in elements, the send offset and count and
// the recv offset and count for a peer (for the rank itself, the copy's
// source, length and destination). A negative count means no message and a
// zero count an empty one. The copy runs, uncharged, when the stream
// reaches the group, so it reads what earlier stream work wrote to send; a
// call with no message still enqueues it. Faults are probed only where
// Send, Recv and the group's task probe them; a failed Send or Recv
// discards the open group, so the next GroupStart begins clean.
func (c *Comm) exchange(send, recv *device.Buffer, dt Datatype, s *device.Stream,
	blocks func(peer int) (soff, scount, roff, rcount int)) error {
	esz := int64(dt.Size())
	if err := c.GroupStart(); err != nil {
		return err
	}
	if so, sn, ro, _ := blocks(c.rank); sn > 0 {
		n := int64(sn) * esz
		c.group.ownSrc, c.group.ownDst = send.View(int64(so)*esz, n), recv.View(int64(ro)*esz, n)
		c.group.stream = s
	}
	for peer := 0; peer < c.core.n; peer++ {
		if peer == c.rank {
			continue
		}
		so, sn, ro, rn := blocks(peer)
		var err error
		if sn >= 0 {
			err = c.Send(send.Slice(int64(so)*esz, int64(sn)*esz), sn, dt, peer, s)
		}
		if err == nil && rn >= 0 {
			err = c.Recv(recv.Slice(int64(ro)*esz, int64(rn)*esz), rn, dt, peer, s)
		}
		if err != nil {
			c.group = nil
			return err
		}
	}
	return c.GroupEnd()
}

// only is count when ok, else -1: exchange's "no message".
func only(ok bool, count int) int {
	if ok {
		return count
	}
	return -1
}
