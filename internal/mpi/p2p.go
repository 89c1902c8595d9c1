package mpi

import (
	"fmt"

	"mpixccl/internal/device"
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
	bytes := c.sendBytes(buf, count, dt, dest)
	if bytes <= c.ctx.job.profile.EagerThreshold {
		c.sendEager(p, buf, count, dt, dest, tag, bytes)
		return
	}

	// Rendezvous: RTS, wait for the receive, then move data directly.
	fab := c.ctx.job.fab
	p.Sleep(c.ctx.job.profile.SendOverhead)
	dstDev := c.RankDevice(dest)
	m := c.ctx.match[dest]
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
		fab.Transfer(p, env.dstBuf, buf, bytes, c.sendOpts())
		c.stage(p, buf, dstDev, bytes)
		r.status = Status{Source: c.rank, Tag: tag, Count: count}
		env.done.Fire()
		r.done.Fire()
		return
	}
	m.unexpected = append(m.unexpected, env)
	env.recvReady.Wait(p)
	fab.ControlMsg(p, dstDev, c.dev) // CTS
	fab.Transfer(p, env.dstBuf, buf, bytes, c.sendOpts())
	c.stage(p, buf, dstDev, bytes)
	env.done.Fire()
}

// sendBytes checks a send's destination and length and returns its payload
// size in bytes.
func (c *Comm) sendBytes(buf *device.Buffer, count int, dt Datatype, dest int) int64 {
	if dest < 0 || dest >= c.Size() {
		panic(fmt.Sprintf("mpi: send to rank %d of %d", dest, c.Size()))
	}
	bytes := int64(count) * int64(dt.Size())
	if bytes > buf.Len() {
		panic(fmt.Sprintf("mpi: send of %d bytes from %d-byte buffer", bytes, buf.Len()))
	}
	return bytes
}

// stage blocks p for the staging penalty of a rendezvous payload, if the
// runtime pays one (stagingPenalty).
func (c *Comm) stage(p *sim.Proc, buf *device.Buffer, dstDev *device.Device, bytes int64) {
	if d, ok := c.stagingPenalty(buf, dstDev, bytes); ok {
		p.Sleep(d)
	}
}

// Recv blocks until a message matching (src, tag) arrives and is delivered
// into buf. src may be AnySource and tag AnyTag. The receive runs as
// guarded steps of the rank's process (see recvOp), so the rank is
// switched to once, when Recv returns.
func (c *Comm) Recv(buf *device.Buffer, count int, dt Datatype, src, tag int) Status {
	return c.recvOn(c.proc, buf, count, dt, src, tag, nil)
}

// recvOn runs one receive on p and, when send is not nil, waits for that
// send to complete too before returning.
func (c *Comm) recvOn(p *sim.Proc, buf *device.Buffer, count int, dt Datatype, src, tag int, send *Request) Status {
	bytes := int64(count) * int64(dt.Size())
	if bytes > buf.Len() {
		panic(fmt.Sprintf("mpi: recv of %d bytes into %d-byte buffer", bytes, buf.Len()))
	}
	o := c.getRecvOp()
	o.c, o.p, o.buf, o.count, o.dt, o.src, o.tag, o.bytes, o.send = c, p, buf, count, dt, src, tag, bytes, send
	p.Guarded(o.stepFn)
	st := o.st
	o.put()
	return st
}

// getRecvOp returns an idle receive state of c's world rank.
func (c *Comm) getRecvOp() *recvOp {
	return c.ctx.job.recvs[c.WorldRank()].get(newRecvOp)
}

func newRecvOp() *recvOp {
	o := &recvOp{}
	o.stepFn = o.step
	return o
}

// put returns a finished op to its world rank's idle list.
func (o *recvOp) put() {
	recvs := &o.c.ctx.job.recvs[o.c.WorldRank()]
	*o = recvOp{stepFn: o.stepFn} // an idle op pins nothing its receive referenced
	recvs.put(o)
}

// recvOp is the receive protocol, the only copy of it, for Recv, the
// receive of Sendrecv and Irecv's progress process alike. It runs as
// guarded steps of the receiving process (sim.Proc.Guarded), each in the
// slot of one of the process's own wake-ups and each running the code the
// process would run between that wake and its next wait: the overhead;
// then matching, which copies an unexpected eager message out of its
// bounce buffer and charges the copy, or lets an unexpected rendezvous
// sender go and waits for its transfer, or else posts the receive and
// waits for a sender to complete it; then, for Sendrecv, the wait for its
// own send. Each world rank keeps its idle ops for reuse (Job.recvs), with
// their step bound once.
type recvOp struct {
	c        *Comm
	p        *sim.Proc
	buf      *device.Buffer
	count    int
	dt       Datatype
	src, tag int
	bytes    int64
	send     *Request // Sendrecv's send, waited for after the receive

	pc     recvStep
	posted *postedRecv // the posted receive, once matching posted it
	st     Status
	stepFn func() bool
}

// recvStep is where step resumes.
type recvStep uint8

const (
	recvOverhead recvStep = iota // charge the receive overhead
	recvMatch                    // match an unexpected message or post the receive
	recvPosted                   // a sender completed the posted receive
	recvSend                     // the message is in: wait for Sendrecv's send
)

// step runs the receive up to its next wait and files it on o.p, or
// reports true when the receive, and Sendrecv's send, are done.
func (o *recvOp) step() bool {
	c, p := o.c, o.p
	m := c.ctx.match[c.rank]
	for {
		switch o.pc {
		case recvOverhead:
			o.pc = recvMatch
			p.SleepStep(c.ctx.job.profile.RecvOverhead)
			return false
		case recvMatch:
			env := m.takeUnexpected(o.src, o.tag)
			if env == nil {
				r := m.getRecv()
				r.src, r.tag, r.dt, r.count, r.dst = o.src, o.tag, o.dt, o.count, o.buf
				m.posted = append(m.posted, r)
				o.posted, o.pc = r, recvPosted
				r.done.WaitStep(p) // just posted: nobody can have completed it
				return false
			}
			got := int64(env.count) * int64(env.dt.Size())
			if got > o.bytes {
				panic("mpi: message truncation (received longer than posted)")
			}
			o.st = Status{Source: env.src, Tag: env.tag, Count: env.count}
			o.pc = recvSend
			if env.eager {
				// Drain the bounce buffer into the user buffer: a local copy.
				copy(o.buf.Bytes()[:got], env.payload)
				m.putEager(env)
				p.SleepStep(c.dev.CopyTime(got))
				return false
			}
			env.dstBuf = o.buf
			env.recvReady.Fire()
			if !env.done.WaitStep(p) {
				return false
			}
		case recvPosted:
			o.st = o.posted.status
			m.putRecv(o.posted)
			o.posted, o.pc = nil, recvSend
		case recvSend:
			return o.send == nil || o.send.done.WaitStep(p)
		}
	}
}

// Request is a handle on a nonblocking operation. It carries the operation
// itself, which kernel callbacks (an eager send) or a progress process of
// the posting rank (everything else) run (see post).
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
// on one request per communicator handle, re-armed by every call, and a
// handle is used by one process. An eager send runs as kernel callbacks and
// a rendezvous one on a progress process (see post). The receive runs as
// guarded steps of the calling process (see recvOp), whose last step waits
// for the send in the slot where the receive completes, so the process is
// switched to once, when both are done.
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
	return c.recvOn(c.proc, recvBuf, recvCount, recvDt, src, recvTag, sreq)
}
