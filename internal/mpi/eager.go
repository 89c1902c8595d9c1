package mpi

import (
	"time"

	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
)

// eagerSend is the eager protocol, the only copy of it: the send overhead;
// then, if the receiver has posted a matching receive, a pooled transfer
// into its buffer (the posted path), or else a copy into a bounce buffer at
// the receiver and the uncontended wire time (the unexpected path); then the
// staging penalty of a non-GPU-direct runtime; then the posted receive's
// completion.
//
// advance runs the protocol up to its next wait, and one of eagerOp's two
// drivers performs the wait: on as guarded steps of a process (the
// blocking Send), step as kernel callbacks (Isend and Sendrecv).
type eagerSend struct {
	c         *Comm
	buf       *device.Buffer
	count     int
	dt        Datatype
	dest, tag int
	bytes     int64

	pc     eagerStep
	posted *postedRecv   // the matched receive on the posted path
	d      time.Duration // the sleep advance asked for
}

// eagerStep is where advance resumes.
type eagerStep uint8

const (
	eagerOverhead eagerStep = iota // charge the send overhead
	eagerMatch                     // match the receiver and inject
	eagerStaging                   // charge any staging penalty
	eagerDeliver                   // complete the posted receive
)

// eagerWait is what advance asks its driver to do.
type eagerWait uint8

const (
	eagerDone     eagerWait = iota
	eagerSleep              // for d
	eagerTransfer           // move bytes into posted.dst over the fabric
)

// reset arms the protocol for one message.
func (e *eagerSend) reset(c *Comm, buf *device.Buffer, count int, dt Datatype, dest, tag int, bytes int64) {
	*e = eagerSend{c: c, buf: buf, count: count, dt: dt, dest: dest, tag: tag, bytes: bytes}
}

// advance runs the protocol up to its next wait and reports it.
func (e *eagerSend) advance() eagerWait {
	c := e.c
	for {
		switch e.pc {
		case eagerOverhead:
			e.d, e.pc = c.ctx.job.profile.SendOverhead, eagerMatch
			return eagerSleep
		case eagerMatch:
			c.ctx.job.countSend("eager", e.bytes)
			e.pc = eagerStaging
			m := c.ctx.match[e.dest]
			if r := m.takePosted(c.rank, e.tag); r != nil {
				if int64(r.count)*int64(r.dt.Size()) < e.bytes {
					panic("mpi: eager message longer than posted receive")
				}
				e.posted = r
				return eagerTransfer
			}
			// No receive posted: stage a copy at the receiver (the eager
			// protocol's bounce buffer) and complete immediately.
			env := m.getEager(e.bytes)
			copy(env.payload, e.buf.Bytes()[:e.bytes])
			env.src, env.tag, env.dt, env.count = c.rank, e.tag, e.dt, e.count
			m.unexpected = append(m.unexpected, env)
			// Charge the uncontended wire time (α + payload) for injecting
			// into the receiver's bounce buffer; eager messages are small
			// enough that link contention is negligible.
			prof := c.ctx.job.profile
			e.d = c.ctx.job.fab.System().LinkBetween(c.dev, c.RankDevice(e.dest)).Time(e.bytes, prof.Channels)
			return eagerSleep
		case eagerStaging:
			e.pc = eagerDeliver
			if d, ok := c.stagingPenalty(e.buf, c.RankDevice(e.dest), e.bytes); ok {
				e.d = d
				return eagerSleep
			}
		case eagerDeliver:
			if r := e.posted; r != nil {
				e.posted = nil
				r.status = Status{Source: c.rank, Tag: e.tag, Count: e.count}
				r.done.Fire()
			}
			return eagerDone
		}
	}
}

// eagerOp runs one eager send. A nonblocking one (Isend, Sendrecv's send)
// runs as kernel callbacks, one in each (time, seq) slot where a progress
// process running the send would wake: the protocol's sleeps are After
// callbacks, and its posted-path transfer runs on the fabric's kernel
// driver. A send never waits on its receiver, so it needs no process. A
// blocking Send runs as guarded steps of the sending process instead, each
// in the slot of one of its own wake-ups (sim.Proc.Guarded), so the process
// is switched to once, when Send returns. Each world rank keeps its idle
// ops for reuse (Job.sends), with both drivers bound once.
type eagerOp struct {
	eagerSend
	x      fabric.Xfer
	req    *Request  // the nonblocking send's request
	p      *sim.Proc // the blocking send's process
	moving bool      // the blocking send's posted-path transfer is in flight
	stepFn func()
	onFn   func() bool
}

// getEagerOp returns an idle eager-send state of c's world rank.
func (c *Comm) getEagerOp() *eagerOp {
	return c.ctx.job.sends[c.WorldRank()].get(newEagerOp)
}

func newEagerOp() *eagerOp {
	o := &eagerOp{}
	o.stepFn, o.onFn = o.step, o.on
	return o
}

// put returns a finished op to its world rank's idle list.
func (o *eagerOp) put() {
	sends := &o.c.ctx.job.sends[o.c.WorldRank()]
	o.eagerSend, o.req, o.p = eagerSend{}, nil, nil // an idle op pins nothing its send referenced
	sends.put(o)
}

// sendEager runs the blocking eager send of bytes bytes on p.
func (c *Comm) sendEager(p *sim.Proc, buf *device.Buffer, count int, dt Datatype, dest, tag int, bytes int64) {
	o := c.getEagerOp()
	o.reset(c, buf, count, dt, dest, tag, bytes)
	o.p = p
	p.Guarded(o.onFn)
	o.put()
}

// on is the process driver: at each activation of o.p it runs the
// protocol, and its posted-path transfer (fabric.Xfer.StepOn), up to the
// next wait and files it on o.p, or reports true when the send is done.
func (o *eagerOp) on() bool {
	if o.moving {
		if !o.x.StepOn(o.p) {
			return false
		}
		o.moving = false
	}
	for {
		switch o.advance() {
		case eagerSleep:
			o.p.SleepStep(o.d)
			return false
		case eagerTransfer:
			if err := o.c.ctx.job.fab.Open(&o.x, o.posted.dst.Whole(), o.buf.Whole(), o.bytes, o.c.sendOpts()); err != nil {
				panic(err)
			}
			if o.moving = !o.x.StepOn(o.p); o.moving {
				return false
			}
		default:
			return true
		}
	}
}

// startEager runs the eager send r as callbacks. Its first step is filed
// at the current instant, in the slot where Pool.Post would wake or spawn
// a progress process for it, and that step schedules the send overhead:
// scheduling the overhead here instead would run the send ahead of
// same-instant events filed after the post.
func (c *Comm) startEager(r *Request, bytes int64) {
	o := c.getEagerOp()
	o.reset(c, r.buf, r.count, r.dt, r.peer, r.tag, bytes)
	o.req = r
	c.ctx.job.fab.Kernel().After(0, o.stepFn)
}

// step is the callback driver: it files each wait as an event that resumes
// the protocol, and completes the request, after the posted receive, in
// the final step's slot.
func (o *eagerOp) step() {
	c := o.c
	fab := c.ctx.job.fab
	switch o.advance() {
	case eagerSleep:
		fab.Kernel().After(o.d, o.stepFn)
	case eagerTransfer:
		if err := fab.Start(&o.x, o.posted.dst.Whole(), o.buf.Whole(), o.bytes, c.sendOpts(), o.stepFn); err != nil {
			panic(err)
		}
	default:
		r := o.req
		o.put()
		r.done.Fire()
	}
}

// sendOpts are the fabric options of one MPI transfer.
func (c *Comm) sendOpts() fabric.Opts {
	prof := c.ctx.job.profile
	return fabric.Opts{Channels: prof.Channels, ChunkBytes: prof.ChunkBytes}
}

// stagingPenalty is the time a non-GPU-direct runtime adds to send a
// device payload of bytes to dstDev, proportional to the wire time (see
// Profile.GPUBWEff*). ok is false when the send pays none.
func (c *Comm) stagingPenalty(buf *device.Buffer, dstDev *device.Device, bytes int64) (d time.Duration, ok bool) {
	if !buf.OnDevice() || c.dev == dstDev {
		return 0, false
	}
	prof := c.ctx.job.profile
	effIntra, effInter := prof.gpuEff()
	eff := effIntra
	if c.dev.Node != dstDev.Node {
		eff = effInter
	}
	if eff >= 1 {
		return 0, false
	}
	link := c.ctx.job.fab.System().LinkBetween(c.dev, dstDev)
	wire := link.Time(bytes, prof.Channels) - link.Alpha
	return time.Duration(float64(wire) * (1/eff - 1)), true
}
