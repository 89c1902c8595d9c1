package mpi

import (
	"time"

	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
)

// sendOp is the send protocol, the only copy of it, for Send, Isend and
// Sendrecv's send alike (a sim.Machine). After the send overhead, a message
// of at most Profile.EagerThreshold bytes goes eagerly: if the receiver has
// posted a matching receive, a transfer into its buffer (the posted path),
// or else a copy into a bounce buffer at the receiver and the uncontended
// wire time (the unexpected path). A larger one goes by rendezvous: the
// RTS; then, if the receive is posted, the transfer into its buffer, or
// else an envelope queued at the receiver, the wait until the receiver
// matches it (recvReady), the CTS, and the transfer into the buffer the
// receiver named. Either way the staging penalty of a non-GPU-direct
// runtime follows, and then the posted receive's or the envelope's
// completion. A transfer is an Xfer whose waits the op forwards.
//
// A blocking Send, and a rendezvous Isend on a progress process, drive the
// op on their process (sim.Proc.Drive), so it resumes once, when the send is
// done. A nonblocking eager send runs it as kernel callbacks
// (sim.Kernel.Start): it never waits on its receiver, so it needs no
// process. Each world rank keeps its idle ops for reuse (Job.sends).
type sendOp struct {
	c         *Comm
	buf       device.View
	count     int
	dt        Datatype
	dest, tag int
	bytes     int64
	req       *Request // the nonblocking eager send's request

	pc     sendStep
	posted *postedRecv // the matched receive on the posted path
	env    *envelope   // the queued envelope on the rendezvous unexpected path
	x      fabric.Xfer

	t      sim.Task // the callback runner of a nonblocking eager send
	doneFn func()   // done, bound once
}

// sendStep is where Advance resumes.
type sendStep uint8

const (
	sendOverhead sendStep = iota // charge the send overhead
	sendPost                     // a nonblocking eager send's first step
	sendInject                   // match the receiver and inject eagerly
	sendRTS                      // charge the rendezvous RTS
	sendMatch                    // match the receiver or queue the envelope
	sendCTS                      // the receiver matched the envelope: charge the CTS
	sendOpen                     // open the transfer into the buffer the receiver named
	sendMove                     // the transfer is in flight
	sendStaging                  // charge any staging penalty
	sendDeliver                  // complete the posted receive or the envelope
)

// getSendOp returns an idle send state of c's world rank, armed for one
// message.
func (c *Comm) getSendOp(buf device.View, count int, dt Datatype, dest, tag int) *sendOp {
	bytes := c.sendBytes(buf, count, dt, dest)
	o := c.ctx.job.sends[c.WorldRank()].get(newSendOp)
	o.c, o.buf, o.count, o.dt, o.dest, o.tag, o.bytes, o.pc = c, buf, count, dt, dest, tag, bytes, sendOverhead
	return o
}

func newSendOp() *sendOp {
	o := &sendOp{}
	o.doneFn = o.done
	return o
}

// put returns a finished op to its world rank's idle list. A finished op's
// transfer, matched receive and envelope are already released, so clearing
// its message leaves it pinning nothing the send referenced.
func (o *sendOp) put() {
	sends := &o.c.ctx.job.sends[o.c.WorldRank()]
	o.c, o.buf, o.req = nil, device.View{}, nil
	sends.put(o)
}

// Advance runs the send up to its next wait and returns it, or returns the
// zero wait once the send is done.
func (o *sendOp) Advance() sim.Wait {
	c := o.c
	for {
		switch o.pc {
		case sendPost:
			// Filed at the current instant, in the slot where Pool.Post
			// would wake or spawn a progress process for the send: charging
			// the overhead here instead would run the send ahead of
			// same-instant events filed after the post.
			o.pc = sendOverhead
			return sim.Sleep(0)
		case sendOverhead:
			prof := &c.ctx.job.profile
			o.pc = sendInject
			if o.bytes > prof.EagerThreshold {
				o.pc = sendRTS
			}
			return sim.Sleep(prof.SendOverhead)
		case sendInject:
			job := c.ctx.job
			job.countSend("eager", o.bytes)
			m := c.ctx.match[o.dest]
			if r := m.takePosted(c.rank, o.tag); r != nil {
				if int64(r.count)*int64(r.dt.Size()) < o.bytes {
					panic("mpi: eager message longer than posted receive")
				}
				o.posted = r
				o.open(r.dst)
				continue
			}
			// No receive posted: stage a copy at the receiver (the eager
			// protocol's bounce buffer) and complete immediately.
			env := m.getEager(o.bytes)
			copy(env.payload, o.buf.Bytes()[:o.bytes])
			env.src, env.tag, env.dt, env.count = c.rank, o.tag, o.dt, o.count
			m.unexpected = append(m.unexpected, env)
			// Charge the uncontended wire time (α + payload) for injecting
			// into the receiver's bounce buffer; eager messages are small
			// enough that link contention is negligible.
			o.pc = sendStaging
			return sim.Sleep(job.fab.System().LinkBetween(c.dev, c.RankDevice(o.dest)).Time(o.bytes, job.profile.Channels))
		case sendRTS:
			c.ctx.job.countSend("rendezvous", o.bytes)
			o.pc = sendMatch
			if d, ok := c.controlAlpha(c.dev, c.RankDevice(o.dest)); ok {
				return sim.Sleep(d)
			}
		case sendMatch:
			m := c.ctx.match[o.dest]
			if r := m.takePosted(c.rank, o.tag); r != nil {
				o.posted = r
				o.open(r.dst)
				continue
			}
			env := m.getEnv(false)
			env.src, env.tag, env.dt, env.count = c.rank, o.tag, o.dt, o.count
			m.unexpected = append(m.unexpected, env)
			o.env, o.pc = env, sendCTS
			return sim.Await(&env.recvReady)
		case sendCTS:
			o.pc = sendOpen
			if d, ok := c.controlAlpha(c.RankDevice(o.dest), c.dev); ok {
				return sim.Sleep(d)
			}
		case sendOpen:
			o.open(o.env.dst)
		case sendMove:
			if w := o.x.Advance(); !w.Done() {
				return w
			}
			o.pc = sendStaging
		case sendStaging:
			o.pc = sendDeliver
			if d, ok := c.stagingPenalty(o.buf, c.RankDevice(o.dest), o.bytes); ok {
				return sim.Sleep(d)
			}
		case sendDeliver:
			if r := o.posted; r != nil {
				o.posted = nil
				r.status = Status{Source: c.rank, Tag: o.tag, Count: o.count}
				r.done.Fire()
			}
			if env := o.env; env != nil {
				o.env = nil // the receiver frees it once it has seen done
				env.done.Fire()
			}
			return sim.Wait{}
		}
	}
}

// open opens the op's transfer into dst and moves the protocol to it.
func (o *sendOp) open(dst device.View) {
	if err := o.c.ctx.job.fab.Open(&o.x, dst, o.buf, o.bytes, o.c.sendOpts()); err != nil {
		panic(err)
	}
	o.pc = sendMove
}

// controlAlpha is the α of one rendezvous control message from src to dst
// (fabric.ControlAlpha); ok is false when none is sent.
func (c *Comm) controlAlpha(src, dst *device.Device) (time.Duration, bool) {
	d, ok, err := c.ctx.job.fab.ControlAlpha(src, dst)
	if err != nil {
		panic(err)
	}
	return d, ok
}

// startEager runs the eager send r as kernel callbacks.
func (c *Comm) startEager(r *Request) {
	o := c.getSendOp(r.buf, r.count, r.dt, r.peer, r.tag)
	o.req, o.pc = r, sendPost
	c.ctx.job.fab.Kernel().Start(&o.t, o, o.doneFn)
}

// done completes a nonblocking eager send's request, after the posted
// receive, in the slot of the send's last step.
func (o *sendOp) done() {
	r := o.req
	o.put()
	r.done.Fire()
}

// sendOpts are the fabric options of one MPI transfer.
func (c *Comm) sendOpts() fabric.Opts {
	prof := c.ctx.job.profile
	return fabric.Opts{Channels: prof.Channels, ChunkBytes: prof.ChunkBytes}
}

// stagingPenalty is the time a non-GPU-direct runtime adds to send a
// device payload of bytes to dstDev, proportional to the wire time (see
// Profile.GPUBWEff*). ok is false when the send pays none.
func (c *Comm) stagingPenalty(buf device.View, dstDev *device.Device, bytes int64) (d time.Duration, ok bool) {
	if !buf.Buf.OnDevice() || c.dev == dstDev {
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
