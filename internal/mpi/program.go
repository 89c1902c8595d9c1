package mpi

import (
	"time"

	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

// collProg is one MPI collective call as data: its algorithm appends the
// steps it takes, in order, and the program then runs them as one machine
// (a sim.Machine) on the calling process, so the rank resumes once, when
// the call returns (Proc.Drive files each wait in the slot where the
// blocking form of the step files it, so modeled time is that of the steps
// run one by one). A nonblocking collective runs its program the same way
// on a progress process (see Icoll).
//
// A program owns its step slice, its scratch buffers, its sendrecv steps'
// send request and receive, and its posted requests. Each world rank keeps
// its idle programs for reuse (Job.progs): a rank's blocking collective and
// its nonblocking ones can be in flight at once.
type collProg struct {
	c     *Comm
	dt    Datatype
	esz   int64 // dt's size
	op    Op
	steps []collStep
	pc    int

	scratch []*device.Buffer // freed when the program ends
	segs    []int            // segment bounds while the algorithm builds

	fwd    sim.Machine // the point-to-point machine in flight
	rcv    recvOp      // a recv or sendrecv step's receive
	sreq   Request     // a sendrecv step's send
	reqs   []*Request  // posted isend and irecv requests, recycled
	posted int         // requests posted since the last waitall
	waited int         // of those, the ones waitall has seen complete
}

// stepKind is what one program step does.
type stepKind uint8

const (
	stepSleep    stepKind = iota // charge d
	stepCopy                     // copy src to dst, uncharged
	stepReduce                   // dst = op(dst, src), then charge ReduceTime
	stepSend                     // blocking send of src to rank to
	stepRecv                     // blocking receive into dst from rank from
	stepSendrecv                 // send src to rank to while receiving dst from rank from
	stepIsend                    // post a send of src to rank to
	stepIrecv                    // post a receive into dst from rank from
	stepWaitall                  // wait for every posted request, in order
)

// collStep is one step of a program. Its views hold whole elements of the
// program's datatype.
type collStep struct {
	kind     stepKind
	d        time.Duration
	dst, src device.View
	to, from int
	tag      int
}

func newCollProg() *collProg { return &collProg{} }

// coll returns an idle program of c's world rank for one collective call on
// elements of dt. Its first step charges the cost of entering the call.
func (c *Comm) coll(dt Datatype) *collProg {
	g := c.ctx.job.progs[c.WorldRank()].get(newCollProg)
	g.c, g.dt, g.esz = c, dt, int64(dt.Size())
	g.sleep(c.ctx.job.profile.CollOverhead)
	return g
}

// run drives the program on its process, frees its scratch and returns it
// to its world rank's idle list, pinning nothing the call referenced.
func (g *collProg) run() {
	c := g.c
	c.proc.Drive(g)
	for _, b := range g.scratch {
		b.Free()
	}
	for _, r := range g.reqs {
		r.c, r.buf = nil, device.View{}
	}
	g.sreq.c, g.sreq.buf = nil, device.View{}
	clear(g.scratch)
	clear(g.steps)
	g.scratch, g.steps, g.pc, g.c, g.rcv = g.scratch[:0], g.steps[:0], 0, nil, recvOp{}
	c.ctx.job.progs[c.WorldRank()].put(g)
}

// alloc returns n bytes of scratch whose contents are undefined: each
// caller says why the algorithm writes them before it reads them.
func (g *collProg) alloc(n int64) device.View {
	b := g.c.dev.MustMallocScratch(n)
	g.scratch = append(g.scratch, b)
	return b.Whole()
}

// segment splits count elements into one contiguous range per rank,
// returning the start element of each range plus a final sentinel. The
// bounds live until the next segment call.
func (g *collProg) segment(count int) []int {
	n := g.c.Size()
	g.segs = append(g.segs[:0], make([]int, n+1)...)
	base, rem := count/n, count%n
	off := 0
	for i := 0; i < n; i++ {
		g.segs[i] = off
		off += base
		if i < rem {
			off++
		}
	}
	g.segs[n] = count
	return g.segs
}

// add appends a step of kind and returns it to be filled in: a slot past
// the steps is zero, since run clears the steps it ran.
func (g *collProg) add(kind stepKind) *collStep {
	if len(g.steps) == cap(g.steps) {
		g.steps = append(g.steps, collStep{})[:len(g.steps)]
	}
	g.steps = g.steps[:len(g.steps)+1]
	s := &g.steps[len(g.steps)-1]
	s.kind = kind
	return s
}

func (g *collProg) sleep(d time.Duration) { g.add(stepSleep).d = d }

func (g *collProg) copy(dst, src device.View) {
	s := g.add(stepCopy)
	s.dst, s.src = dst, src
}

func (g *collProg) reduce(dst, src device.View) {
	s := g.add(stepReduce)
	s.dst, s.src = dst, src
}

func (g *collProg) send(src device.View, to, tag int) {
	s := g.add(stepSend)
	s.src, s.to, s.tag = src, to, tag
}

func (g *collProg) recv(dst device.View, from, tag int) {
	s := g.add(stepRecv)
	s.dst, s.from, s.tag = dst, from, tag
}

func (g *collProg) sendrecv(src device.View, to int, dst device.View, from, tag int) {
	s := g.add(stepSendrecv)
	s.src, s.to, s.dst, s.from, s.tag = src, to, dst, from, tag
}

func (g *collProg) isend(src device.View, to, tag int) {
	s := g.add(stepIsend)
	s.src, s.to, s.tag = src, to, tag
}

func (g *collProg) irecv(dst device.View, from, tag int) {
	s := g.add(stepIrecv)
	s.dst, s.from, s.tag = dst, from, tag
}

func (g *collProg) waitall() { g.add(stepWaitall) }

// count is the number of program elements in v.
func (g *collProg) count(v device.View) int { return int(v.N / g.esz) }

// Advance runs the program up to its next wait and returns it, or returns
// the zero wait once every step is done. A point-to-point step forwards
// the waits of its send or receive machine.
func (g *collProg) Advance() sim.Wait {
	c := g.c
	for {
		if g.fwd != nil {
			if w := g.fwd.Advance(); !w.Done() {
				return w
			}
			if o, ok := g.fwd.(*sendOp); ok {
				o.put() // a send step's op goes back to its idle list
			}
			g.fwd = nil
		}
		if g.pc == len(g.steps) {
			return sim.Wait{}
		}
		s := &g.steps[g.pc]
		g.pc++
		switch s.kind {
		case stepSleep:
			return sim.Sleep(s.d)
		case stepCopy:
			copy(s.dst.Bytes(), s.src.Bytes())
		case stepReduce:
			Reduce(g.op, g.dt, s.dst.Bytes(), s.src.Bytes(), g.count(s.dst))
			return sim.Sleep(c.dev.ReduceTime(s.dst.N))
		case stepSend:
			g.fwd = c.getSendOp(s.src, g.count(s.src), g.dt, s.to, s.tag)
		case stepRecv:
			g.rcv.arm(c, s.dst, g.count(s.dst), g.dt, s.from, s.tag, nil)
			g.fwd = &g.rcv
		case stepSendrecv:
			g.sreq.start(c, true, s.src, g.count(s.src), g.dt, s.to, s.tag)
			g.rcv.arm(c, s.dst, g.count(s.dst), g.dt, s.from, s.tag, &g.sreq)
			g.fwd = &g.rcv
		case stepIsend, stepIrecv:
			if g.posted == len(g.reqs) {
				g.reqs = append(g.reqs, &Request{})
			}
			r := g.reqs[g.posted]
			g.posted++
			if s.kind == stepIsend {
				r.start(c, true, s.src, g.count(s.src), g.dt, s.to, s.tag)
			} else {
				r.start(c, false, s.dst, g.count(s.dst), g.dt, s.from, s.tag)
			}
		case stepWaitall:
			if g.waited < g.posted {
				g.pc-- // this step again, for the next request
				g.waited++
				return sim.Await(&g.reqs[g.waited-1].done)
			}
			g.posted, g.waited = 0, 0
		}
	}
}
