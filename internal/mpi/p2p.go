package mpi

import (
	"fmt"
	"time"

	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
)

// Wildcards for Recv matching.
const (
	// AnySource matches a message from any rank (MPI_ANY_SOURCE).
	AnySource = -1
	// AnyTag matches any tag (MPI_ANY_TAG).
	AnyTag = -1
)

// Status describes a completed receive.
type Status struct {
	// Source is the sending rank (communicator-local).
	Source int
	// Tag is the matched message tag.
	Tag int
	// Count is the received element count.
	Count int
}

// envelope is one in-flight message at the receiver.
type envelope struct {
	src, tag  int
	dt        Datatype
	count     int
	eager     bool
	payload   []byte         // eager: the bounce buffer, a copy at the receiver
	srcBuf    *device.Buffer // rendezvous: sender's live buffer
	dstBuf    *device.Buffer // rendezvous: set when the receive is posted
	recvReady *sim.Event     // rendezvous: receiver has posted
	done      *sim.Event     // transfer complete
}

// postedRecv is a receive waiting for its message.
type postedRecv struct {
	src, tag int
	dt       Datatype
	count    int
	dst      *device.Buffer
	done     sim.Event
	status   Status
}

// matchCtx is one rank's matching engine on one communicator: the posted
// receive queue and the unexpected message queue, searched in order as the
// MPI standard requires.
//
// It also keeps free lists of the rank's eager envelopes and posted
// receives, so a small message allocates nothing once they are warm. Each
// object has one owner at a time: the sender stops touching it when it
// hands it over (queues an eager envelope, fires a receive's event), and
// the receiver returns it here once it has read it.
type matchCtx struct {
	posted     []*postedRecv
	unexpected []*envelope
	freeEager  []*envelope
	freeRecv   []*postedRecv
}

// getEager returns an eager envelope whose payload holds bytes bytes,
// reusing a free one and its payload when the capacity fits.
func (m *matchCtx) getEager(bytes int64) *envelope {
	var e *envelope
	if n := len(m.freeEager); n > 0 {
		e = m.freeEager[n-1]
		m.freeEager[n-1] = nil
		m.freeEager = m.freeEager[:n-1]
	} else {
		e = &envelope{eager: true}
	}
	if int64(cap(e.payload)) < bytes {
		e.payload = make([]byte, bytes)
	}
	e.payload = e.payload[:bytes]
	return e
}

func (m *matchCtx) putEager(e *envelope) { m.freeEager = append(m.freeEager, e) }

// getRecv returns a posted receive with its event reset.
func (m *matchCtx) getRecv() *postedRecv {
	n := len(m.freeRecv)
	if n == 0 {
		return &postedRecv{}
	}
	r := m.freeRecv[n-1]
	m.freeRecv[n-1] = nil
	m.freeRecv = m.freeRecv[:n-1]
	r.done.Reset()
	return r
}

// putRecv frees a completed receive, dropping its buffer reference.
func (m *matchCtx) putRecv(r *postedRecv) {
	r.dst = nil
	m.freeRecv = append(m.freeRecv, r)
}

func match(src, tag, wantSrc, wantTag int) bool {
	return (wantSrc == AnySource || wantSrc == src) && (wantTag == AnyTag || wantTag == tag)
}

func (m *matchCtx) takeUnexpected(src, tag int) *envelope {
	for i, e := range m.unexpected {
		if match(e.src, e.tag, src, tag) {
			m.unexpected = append(m.unexpected[:i], m.unexpected[i+1:]...)
			return e
		}
	}
	return nil
}

func (m *matchCtx) takePosted(src, tag int) *postedRecv {
	for i, r := range m.posted {
		if match(src, tag, r.src, r.tag) {
			m.posted = append(m.posted[:i], m.posted[i+1:]...)
			return r
		}
	}
	return nil
}

// Send transmits count elements of dt from buf to dest with the given tag,
// blocking until the send buffer is reusable (eager: after injection;
// rendezvous: after the transfer completes). buf must hold count elements.
func (c *Comm) Send(buf *device.Buffer, count int, dt Datatype, dest, tag int) {
	c.sendOn(c.proc, buf, count, dt, dest, tag)
}

func (c *Comm) sendOn(p *sim.Proc, buf *device.Buffer, count int, dt Datatype, dest, tag int) {
	if dest < 0 || dest >= c.Size() {
		panic(fmt.Sprintf("mpi: send to rank %d of %d", dest, c.Size()))
	}
	bytes := int64(count) * int64(dt.Size())
	if bytes > buf.Len() {
		panic(fmt.Sprintf("mpi: send of %d bytes from %d-byte buffer", bytes, buf.Len()))
	}
	prof := c.ctx.job.profile
	fab := c.ctx.job.fab
	p.Sleep(prof.SendOverhead)
	dstDev := c.ctx.job.devices[c.ctx.group[dest]]
	m := c.ctx.match[dest]
	opts := fabric.Opts{Channels: prof.Channels, ChunkBytes: prof.ChunkBytes}
	// Non-GPU-direct runtimes pay a staging penalty on device payloads,
	// proportional to the wire time (see Profile.GPUBWEff*).
	gpuPenalty := func() {
		if !buf.OnDevice() || c.dev == dstDev {
			return
		}
		effIntra, effInter := prof.gpuEff()
		eff := effIntra
		if c.dev.Node != dstDev.Node {
			eff = effInter
		}
		if eff >= 1 {
			return
		}
		link := fab.System().LinkBetween(c.dev, dstDev)
		wire := link.Time(bytes, prof.Channels) - link.Alpha
		p.Sleep(time.Duration(float64(wire) * (1/eff - 1)))
	}

	if bytes <= prof.EagerThreshold {
		c.ctx.job.countSend("eager", bytes)
		if r := m.takePosted(c.rank, tag); r != nil {
			if int64(r.count)*int64(r.dt.Size()) < bytes {
				panic("mpi: eager message longer than posted receive")
			}
			fab.Transfer(p, r.dst, buf, bytes, opts)
			gpuPenalty()
			r.status = Status{Source: c.rank, Tag: tag, Count: count}
			r.done.Fire()
			return
		}
		// No receive posted: stage a copy at the receiver (the eager
		// protocol's bounce buffer) and complete immediately.
		env := m.getEager(bytes)
		copy(env.payload, buf.Bytes()[:bytes])
		env.src, env.tag, env.dt, env.count = c.rank, tag, dt, count
		m.unexpected = append(m.unexpected, env)
		// Charge the uncontended wire time (α + payload) for injecting
		// into the receiver's bounce buffer; eager messages are small
		// enough that link contention is negligible.
		p.Sleep(fab.System().LinkBetween(c.dev, dstDev).Time(bytes, prof.Channels))
		gpuPenalty()
		return
	}

	// Rendezvous: RTS, wait for the receive, then move data directly.
	c.ctx.job.countSend("rendezvous", bytes)
	env := &envelope{
		src: c.rank, tag: tag, dt: dt, count: count,
		srcBuf:    buf,
		recvReady: sim.NewEvent(p.Kernel()),
		done:      sim.NewEvent(p.Kernel()),
	}
	fab.ControlMsg(p, c.dev, dstDev) // RTS
	if r := m.takePosted(c.rank, tag); r != nil {
		env.dstBuf = r.dst
		env.recvReady.Fire()
		fab.Transfer(p, env.dstBuf, buf, bytes, opts)
		gpuPenalty()
		r.status = Status{Source: c.rank, Tag: tag, Count: count}
		env.done.Fire()
		r.done.Fire()
		return
	}
	m.unexpected = append(m.unexpected, env)
	env.recvReady.Wait(p)
	fab.ControlMsg(p, dstDev, c.dev) // CTS
	fab.Transfer(p, env.dstBuf, buf, bytes, opts)
	gpuPenalty()
	env.done.Fire()
}

// Recv blocks until a message matching (src, tag) arrives and is delivered
// into buf. src may be AnySource and tag AnyTag.
func (c *Comm) Recv(buf *device.Buffer, count int, dt Datatype, src, tag int) Status {
	return c.recvOn(c.proc, buf, count, dt, src, tag)
}

func (c *Comm) recvOn(p *sim.Proc, buf *device.Buffer, count int, dt Datatype, src, tag int) Status {
	bytes := int64(count) * int64(dt.Size())
	if bytes > buf.Len() {
		panic(fmt.Sprintf("mpi: recv of %d bytes into %d-byte buffer", bytes, buf.Len()))
	}
	prof := c.ctx.job.profile
	p.Sleep(prof.RecvOverhead)
	m := c.ctx.match[c.rank]
	if env := m.takeUnexpected(src, tag); env != nil {
		got := int64(env.count) * int64(env.dt.Size())
		if got > bytes {
			panic("mpi: message truncation (received longer than posted)")
		}
		st := Status{Source: env.src, Tag: env.tag, Count: env.count}
		if env.eager {
			// Drain the bounce buffer into the user buffer: a local copy.
			copy(buf.Bytes()[:got], env.payload)
			m.putEager(env)
			p.Sleep(c.dev.CopyTime(got))
			return st
		}
		env.dstBuf = buf
		env.recvReady.Fire()
		env.done.Wait(p)
		return st
	}
	r := m.getRecv()
	r.src, r.tag, r.dt, r.count, r.dst = src, tag, dt, count, buf
	m.posted = append(m.posted, r)
	r.done.Wait(p)
	st := r.status
	m.putRecv(r)
	return st
}

// Request is a handle on a nonblocking operation. It carries the operation
// itself: a progress process of the posting rank runs it (see post).
type Request struct {
	done   sim.Event
	status Status // a receive's status; zero for sends and collectives

	c         *Comm
	coll      func(ac *Comm) // a nonblocking collective; nil for point-to-point
	epoch     int            // coll's reserved collective sequence slot
	send      bool
	buf       *device.Buffer
	count     int
	dt        Datatype
	peer, tag int
}

// Wait blocks the communicator's rank process until the operation completes
// and returns the receive status (zero Status for sends).
func (c *Comm) Wait(r *Request) Status {
	r.done.Wait(c.proc)
	return r.status
}

// Waitall completes every request.
func (c *Comm) Waitall(reqs []*Request) {
	for _, r := range reqs {
		c.Wait(r)
	}
}

// Isend starts a nonblocking send; complete it with Wait.
func (c *Comm) Isend(buf *device.Buffer, count int, dt Datatype, dest, tag int) *Request {
	r := &Request{c: c, send: true, buf: buf, count: count, dt: dt, peer: dest, tag: tag}
	c.post(r)
	return r
}

// Irecv starts a nonblocking receive; complete it with Wait.
func (c *Comm) Irecv(buf *device.Buffer, count int, dt Datatype, src, tag int) *Request {
	r := &Request{c: c, buf: buf, count: count, dt: dt, peer: src, tag: tag}
	c.post(r)
	return r
}

// Sendrecv performs a simultaneous send and receive, the workhorse of the
// ring and pairwise collective algorithms. Its send is a nonblocking send
// on one request per communicator handle, re-armed by every call: the call
// waits for it before returning, and a handle is used by one process.
func (c *Comm) Sendrecv(
	sendBuf *device.Buffer, sendCount int, sendDt Datatype, dest, sendTag int,
	recvBuf *device.Buffer, recvCount int, recvDt Datatype, src, recvTag int,
) Status {
	sreq := c.sendrecv
	if sreq == nil {
		sreq = &Request{c: c, send: true}
		c.sendrecv = sreq
	}
	sreq.buf, sreq.count, sreq.dt, sreq.peer, sreq.tag = sendBuf, sendCount, sendDt, dest, sendTag
	sreq.restart()
	st := c.Recv(recvBuf, recvCount, recvDt, src, recvTag)
	c.Wait(sreq)
	return st
}
