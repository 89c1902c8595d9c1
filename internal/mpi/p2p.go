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
	payload   []byte      // eager: the bounce buffer, a copy at the receiver
	dst       device.View // rendezvous: set when the receive is posted
	recvReady sim.Event   // rendezvous: receiver has posted
	done      sim.Event   // rendezvous: transfer complete
}

// postedRecv is a receive waiting for its message.
type postedRecv struct {
	src, tag int
	dt       Datatype
	count    int
	dst      device.View
	done     sim.Event
	status   Status
}

// matchCtx is one rank's matching engine on one communicator: the posted
// receive queue and the unexpected message queue, searched in order as the
// MPI standard requires.
//
// It also keeps free lists of the rank's envelopes and posted receives, so
// a message allocates nothing once they are warm. Each object has one
// owner at a time: the sender stops touching it when it hands it over
// (queues an eager envelope, fires a rendezvous envelope's done or a
// receive's event), and the receiver returns it here once it has read it.
type matchCtx struct {
	posted     []*postedRecv
	unexpected []*envelope
	freeEnv    []*envelope
	freeRecv   []*postedRecv
}

// getEnv returns an envelope of the given protocol with its events reset.
func (m *matchCtx) getEnv(eager bool) *envelope {
	var e *envelope
	if n := len(m.freeEnv); n > 0 {
		e = m.freeEnv[n-1]
		m.freeEnv[n-1] = nil
		m.freeEnv = m.freeEnv[:n-1]
		e.recvReady.Reset()
		e.done.Reset()
	} else {
		e = &envelope{}
	}
	e.eager = eager
	return e
}

// getEager returns an eager envelope whose payload holds bytes bytes,
// reusing a free envelope's payload when the capacity fits.
func (m *matchCtx) getEager(bytes int64) *envelope {
	e := m.getEnv(true)
	if int64(cap(e.payload)) < bytes {
		e.payload = make([]byte, bytes)
	}
	e.payload = e.payload[:bytes]
	return e
}

// putEnv frees a read envelope, dropping its buffer reference.
func (m *matchCtx) putEnv(e *envelope) {
	e.dst = device.View{}
	m.freeEnv = append(m.freeEnv, e)
}

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
	r.dst = device.View{}
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
// The send runs on the rank's process (see sendOp), so the rank is switched
// to once, when Send returns.
func (c *Comm) Send(buf *device.Buffer, count int, dt Datatype, dest, tag int) {
	o := c.getSendOp(buf.Whole(), count, dt, dest, tag)
	c.proc.Drive(o)
	o.put()
}

// sendBytes checks a send's destination and length and returns its payload
// size in bytes.
func (c *Comm) sendBytes(buf device.View, count int, dt Datatype, dest int) int64 {
	if dest < 0 || dest >= c.Size() {
		panic(fmt.Sprintf("mpi: send to rank %d of %d", dest, c.Size()))
	}
	bytes := int64(count) * int64(dt.Size())
	if bytes > buf.Len() {
		panic(fmt.Sprintf("mpi: send of %d bytes from %d-byte buffer", bytes, buf.Len()))
	}
	return bytes
}

// Recv blocks until a message matching (src, tag) arrives and is delivered
// into buf. src may be AnySource and tag AnyTag. The receive runs on the
// rank's process (see recvOp), so the rank is switched to once, when Recv
// returns.
func (c *Comm) Recv(buf *device.Buffer, count int, dt Datatype, src, tag int) Status {
	return c.recvOn(c.proc, buf.Whole(), count, dt, src, tag, nil)
}

// recvOn runs one receive on p and, when send is not nil, waits for that
// send to complete too before returning.
func (c *Comm) recvOn(p *sim.Proc, buf device.View, count int, dt Datatype, src, tag int, send *Request) Status {
	recvs := &c.ctx.job.recvs[c.WorldRank()]
	o := recvs.get(newRecvOp)
	o.arm(c, buf, count, dt, src, tag, send)
	p.Drive(o)
	st := o.st
	*o = recvOp{} // an idle op pins nothing its receive referenced
	recvs.put(o)
	return st
}

func newRecvOp() *recvOp { return &recvOp{} }

// arm sets o up for one receive of count elements into buf and, when send
// is not nil, the wait for that send.
func (o *recvOp) arm(c *Comm, buf device.View, count int, dt Datatype, src, tag int, send *Request) {
	bytes := int64(count) * int64(dt.Size())
	if bytes > buf.Len() {
		panic(fmt.Sprintf("mpi: recv of %d bytes into %d-byte buffer", bytes, buf.Len()))
	}
	o.c, o.buf, o.count, o.dt, o.src, o.tag, o.bytes, o.send = c, buf, count, dt, src, tag, bytes, send
	o.pc, o.st = recvOverhead, Status{} // a done op holds no posted receive or envelope
}

// recvOp is the receive protocol, the only copy of it, for Recv, the
// receive of Sendrecv, Irecv's progress process and a collective program's
// receive steps alike (a sim.Machine):
// the overhead; then matching, which copies an unexpected eager message out
// of its bounce buffer and charges the copy, or lets an unexpected
// rendezvous sender go and waits for its transfer, or else posts the
// receive and waits for a sender to complete it; then, for Sendrecv, the
// wait for its own send. The receiving process drives it (sim.Proc.Drive),
// so it resumes once, when the receive is done. Each world rank keeps its
// idle ops for reuse (Job.recvs).
type recvOp struct {
	c        *Comm
	buf      device.View
	count    int
	dt       Datatype
	src, tag int
	bytes    int64
	send     *Request // Sendrecv's send, waited for after the receive

	pc     recvStep
	posted *postedRecv // the posted receive, once matching posted it
	env    *envelope   // the matched rendezvous envelope, until its done
	st     Status
}

// recvStep is where Advance resumes.
type recvStep uint8

const (
	recvOverhead recvStep = iota // charge the receive overhead
	recvMatch                    // match an unexpected message or post the receive
	recvPosted                   // a sender completed the posted receive
	recvRndv                     // an unexpected rendezvous sender completed its transfer
	recvSend                     // the message is in: wait for Sendrecv's send
)

// Advance runs the receive up to its next wait and returns it, or returns
// the zero wait once the receive, and Sendrecv's send, are done.
func (o *recvOp) Advance() sim.Wait {
	c := o.c
	m := c.ctx.match[c.rank]
	for {
		switch o.pc {
		case recvOverhead:
			o.pc = recvMatch
			return sim.Sleep(c.ctx.job.profile.RecvOverhead)
		case recvMatch:
			env := m.takeUnexpected(o.src, o.tag)
			if env == nil {
				r := m.getRecv()
				r.src, r.tag, r.dt, r.count, r.dst = o.src, o.tag, o.dt, o.count, o.buf
				m.posted = append(m.posted, r)
				o.posted, o.pc = r, recvPosted
				return sim.Await(&r.done)
			}
			got := int64(env.count) * int64(env.dt.Size())
			if got > o.bytes {
				panic("mpi: message truncation (received longer than posted)")
			}
			o.st = Status{Source: env.src, Tag: env.tag, Count: env.count}
			if env.eager {
				// Drain the bounce buffer into the user buffer: a local copy.
				copy(o.buf.Bytes()[:got], env.payload)
				m.putEnv(env)
				o.pc = recvSend
				return sim.Sleep(c.dev.CopyTime(got))
			}
			env.dst = o.buf
			env.recvReady.Fire()
			o.env, o.pc = env, recvRndv
			return sim.Await(&env.done)
		case recvRndv:
			m.putEnv(o.env)
			o.env, o.pc = nil, recvSend
		case recvPosted:
			o.st = o.posted.status
			m.putRecv(o.posted)
			o.posted, o.pc = nil, recvSend
		case recvSend:
			if s := o.send; s != nil {
				o.send = nil
				return sim.Await(&s.done)
			}
			return sim.Wait{}
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
	buf       device.View
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
	r := &Request{}
	r.start(c, true, buf.Whole(), count, dt, dest, tag)
	return r
}

// Irecv starts a nonblocking receive; complete it with Wait.
func (c *Comm) Irecv(buf *device.Buffer, count int, dt Datatype, src, tag int) *Request {
	r := &Request{}
	r.start(c, false, buf.Whole(), count, dt, src, tag)
	return r
}

// Sendrecv performs a simultaneous send and receive, the workhorse of the
// ring and pairwise collective algorithms. Its send is a nonblocking send
// on one request per communicator handle, re-armed by every call, and a
// handle is used by one process. An eager send runs as kernel callbacks and
// a rendezvous one on a progress process (see post). The receive runs on
// the calling process (see recvOp), whose last wait is for the send, so the
// process is switched to once, when both are done.
func (c *Comm) Sendrecv(
	sendBuf *device.Buffer, sendCount int, sendDt Datatype, dest, sendTag int,
	recvBuf *device.Buffer, recvCount int, recvDt Datatype, src, recvTag int,
) Status {
	sreq := c.sendrecv
	if sreq == nil {
		sreq = &Request{}
		c.sendrecv = sreq
	}
	sreq.start(c, true, sendBuf.Whole(), sendCount, sendDt, dest, sendTag)
	return c.recvOn(c.proc, recvBuf.Whole(), recvCount, recvDt, src, recvTag, sreq)
}
