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
// advance runs the protocol up to its next wait, and a driver performs the
// wait: runOn on a process (the blocking Send), eagerOp's step as kernel
// callbacks (Isend and Sendrecv).
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

// runOn is the process driver: it performs each wait on p.
func (e *eagerSend) runOn(p *sim.Proc) {
	for {
		switch e.advance() {
		case eagerSleep:
			p.Sleep(e.d)
		case eagerTransfer:
			e.c.ctx.job.fab.Transfer(p, e.posted.dst, e.buf, e.bytes, e.c.sendOpts())
		default:
			return
		}
	}
}

// eagerOp runs one nonblocking eager send as kernel callbacks, one in each
// (time, seq) slot where a progress process running the send would wake:
// the protocol's sleeps are After callbacks, and its posted-path transfer
// runs on the fabric's kernel driver. A send never waits on its receiver,
// so it needs no process. Each world rank keeps its idle ops for reuse
// (Job.sends), with their step bound once.
type eagerOp struct {
	eagerSend
	x      fabric.Xfer
	req    *Request
	stepFn func()
}

// startEager runs the eager send r as callbacks. Its first step is filed
// at the current instant, in the slot where Pool.Post would wake or spawn
// a progress process for it, and that step schedules the send overhead:
// scheduling the overhead here instead would run the send ahead of
// same-instant events filed after the post.
func (c *Comm) startEager(r *Request, bytes int64) {
	j, wr := c.ctx.job, c.WorldRank()
	var o *eagerOp
	if n := len(j.sends[wr]); n > 0 {
		o = j.sends[wr][n-1]
		j.sends[wr][n-1] = nil
		j.sends[wr] = j.sends[wr][:n-1]
	} else {
		o = &eagerOp{}
		o.stepFn = o.step
	}
	o.reset(c, r.buf, r.count, r.dt, r.peer, r.tag, bytes)
	o.req = r
	j.fab.Kernel().After(0, o.stepFn)
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
		r, j, wr := o.req, c.ctx.job, c.WorldRank()
		o.eagerSend, o.req = eagerSend{}, nil // an idle op pins nothing its send referenced
		j.sends[wr] = append(j.sends[wr], o)
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
