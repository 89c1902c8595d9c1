// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel owns a virtual clock and an event queue. Simulated activities
// are "processes": ordinary Go functions, each running as a coroutine
// (iter.Pull), scheduled cooperatively so that exactly one process (or the
// kernel loop itself) executes at any moment. A process advances virtual
// time by sleeping, or blocks on synchronization primitives (Event, Chan,
// Resource, Barrier) until another process wakes it. Because hand-off
// between the kernel and processes is strictly sequential and the event
// queue breaks ties by insertion order, a simulation is fully
// deterministic: the same program produces the same virtual-time trace on
// every run.
//
// This kernel is the substrate for the simulated cluster: every MPI rank
// and device stream in this repository is a sim process, and so is nearly
// every fabric transfer. Work that an operation starts in the background
// and that may wait on a peer — MPI rendezvous sends, receives and
// nonblocking collectives, CCL asynchronous sends, plan lanes, leader
// engines and group sends — runs on resident workers from a Pool, at the
// virtual time of a process spawned per job. A call that only does
// bookkeeping at its wake-ups (an MPI send or receive, Sendrecv, an MPI
// collective's program, a fabric transfer, a whole rank of the sharded
// scale model) is written once, as a Machine whose Advance returns its next
// Wait, and one of two runners drives it: a process (Proc.Drive), which
// advances the machine in the kernel, in the slot of each of its own
// wake-ups, and is switched to once, when the call returns; or kernel
// callbacks (Kernel.Start), for a nonblocking MPI eager send, which never
// waits on a peer, each in the (time, seq) slot where a worker running it
// would have woken.
//
// # Scheduling internals
//
// Three hot-path design choices keep the kernel off the wall-clock profile
// (docs/ARCHITECTURE.md, "Simulator performance"):
//
//   - Events are values in a 4-ary index heap, not pointers in a
//     container/heap. The backing slice is the free list: popped slots are
//     reused by later pushes, so steady-state scheduling performs zero heap
//     allocations. Process activations carry the *Proc directly instead of
//     a heap-allocated closure.
//
//   - Only future events enter the heap. An event due at the current
//     instant (a wake-up, a Sleep(0), a Spawn) is appended to a FIFO ring
//     beside it, in O(1) and without sifting. pick takes the heap's top
//     only when it is due now and was scheduled before the FIFO's head, so
//     events still run in exact (time, seq) order.
//
//   - Hand-off is a coroutine switch. Run drives one loop: pick the next
//     activated process and switch into it. A process that parks picks
//     events itself until one activates a process: itself, and it simply
//     keeps running (no switch at all — the dominant Sleep/park/unpark
//     cycle), or another, which it leaves for the loop before yielding.
//     The activation of a process driving a machine advances the machine
//     in pick and activates the process only once the machine is done.
//     The runtime switches coroutines directly, without the run-queue
//     round trip of a channel send and a goroutine park.
package sim

import (
	"fmt"
	"runtime/debug"
	"time"
)

// Time is an instant on the virtual clock, expressed as an offset from the
// simulation epoch (time zero). Durations use the standard library's
// time.Duration; one tick is one virtual nanosecond.
type Time = time.Duration

// event is a scheduled occurrence. seq orders events with equal fire times
// so the queue pops them in schedule order, keeping runs deterministic.
// Exactly one of proc and fn is set: proc marks a process activation (the
// allocation-free fast path), fn a general callback.
type event struct {
	at   Time
	seq  uint64
	proc *Proc
	fn   func()
}

// eventQueue is a 4-ary min-heap of event values ordered by (at, seq). The
// wider fan-out halves the tree depth of the binary heap it replaces, and
// value storage removes the per-event allocation and interface boxing of
// container/heap.
type eventQueue []event

func (q eventQueue) before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (q *eventQueue) push(ev event) {
	s := append(*q, ev)
	// Sift up with a hole instead of pairwise swaps.
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s.before(&ev, &s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
	*q = s
}

func (q *eventQueue) pop() event {
	s := *q
	top := s[0]
	last := len(s) - 1
	ev := s[last]
	s[last] = event{} // release proc/fn references into the free list slot
	s = s[:last]
	*q = s
	if last == 0 {
		return top
	}
	// Sift the former tail down from the root with a hole.
	i := 0
	for {
		c := i*4 + 1
		if c >= last {
			break
		}
		end := c + 4
		if end > last {
			end = last
		}
		min := c
		for j := c + 1; j < end; j++ {
			if s.before(&s[j], &s[min]) {
				min = j
			}
		}
		if !s.before(&s[min], &ev) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = ev
	return top
}

// nowQueue is a FIFO ring of the events due at the kernel's current
// instant. Events are pushed with increasing seq, so the ring is already in
// (at, seq) order and needs no sifting. The ring is the free list: its
// capacity is the peak number of pending same-instant events, however many
// pass through one instant.
type nowQueue struct {
	buf  []event // len is zero or a power of two
	head int
	n    int
}

func (q *nowQueue) push(ev event) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = ev
	q.n++
}

func (q *nowQueue) pop() event {
	ev := q.buf[q.head]
	q.buf[q.head] = event{} // release proc/fn references
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return ev
}

// grow doubles a full ring, unrolling it to start at index zero.
func (q *nowQueue) grow() {
	buf := make([]event, max(16, 2*len(q.buf)))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Kernel is a discrete-event simulator instance. The zero value is not
// usable; create one with NewKernel.
type Kernel struct {
	now Time
	// Pending events: those due at now in the FIFO, later ones in the heap.
	// The heap may also hold events due at now, scheduled before the clock
	// reached their instant; pick merges the two by seq.
	queue   eventQueue
	fifo    nowQueue
	seq     uint64
	next    *Proc // the process a yielding or exiting process hands control to
	procs   map[int]*Proc
	nextPID int
	alive   int
	running bool
	stopped bool // set by Close: pick runs no more events

	// Window-bounded dispatch (see shard.go): when bounded is set, dispatch
	// stops before popping any event at or after horizon, leaving the queue
	// and all parked processes intact for the next window.
	bounded bool
	horizon Time

	stepping *Proc       // the process whose machine pick is advancing
	onResume func(*Proc) // see OnResume
}

// NewKernel returns a kernel with an empty event queue and the clock at zero.
func NewKernel() *Kernel {
	return &Kernel{procs: make(map[int]*Proc)}
}

// Now reports the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// schedule enqueues fn to run at virtual time at. It may be called from the
// kernel loop or from the currently executing process; both are serialized.
func (k *Kernel) schedule(at Time, fn func()) {
	k.push(at, nil, fn)
}

// scheduleProc enqueues an activation of p at virtual time at. This is the
// allocation-free fast path behind Sleep, unpark, and Spawn.
func (k *Kernel) scheduleProc(at Time, p *Proc) {
	k.push(at, p, nil)
}

// push files an event due at the current instant (or earlier, which is
// clamped to it) in the FIFO and a later one in the heap.
func (k *Kernel) push(at Time, p *Proc, fn func()) {
	if at <= k.now {
		k.fifo.push(event{at: k.now, seq: k.seq, proc: p, fn: fn})
	} else {
		k.queue.push(event{at: at, seq: k.seq, proc: p, fn: fn})
	}
	k.seq++
}

// After schedules fn to run after delay d of virtual time. It is the
// non-blocking timer primitive; processes that want to block should use
// Proc.Sleep instead.
func (k *Kernel) After(d time.Duration, fn func()) {
	k.schedule(k.now+d, fn)
}

// Spawn creates a new process running fn and schedules its first activation
// at the current virtual time. It may be called before Run or from inside a
// running process. The process's coroutine is created at that first
// activation, so a process that never runs costs no goroutine.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{k: k, id: k.nextPID, name: name, fn: fn, done: NewEvent(k)}
	k.nextPID++
	k.procs[p.id] = p
	k.alive++
	k.scheduleProc(k.now, p)
	return p
}

// SpawnDaemon creates a background service process. Daemons do not keep the
// simulation alive and are not reported as deadlocked: a run in which only
// daemons remain blocked (e.g. device streams waiting for work) terminates
// normally. Use daemons for server loops, streams, and progress engines.
func (k *Kernel) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	p := k.Spawn(name, fn)
	p.daemon = true
	k.alive--
	return p
}

// pick executes events until one activates a live process and returns
// that process. An activation of a process parked in Drive advances its
// machine first, and activates the process only once the machine is done. pick returns nil once the queue
// drains, Close is unwinding the kernel, or (in a bounded window) the next event lies at
// or past the horizon. The side holding control runs it: the loop, or a
// parking or exiting process, so all kernel state stays single-threaded
// even though every process has its own goroutine.
//
// Events run in (at, seq) order. FIFO events are all due now and the heap
// holds nothing earlier, so the next event is the FIFO's head unless the
// heap's top is due now too and was scheduled first. A bounded window
// never ends at a FIFO event: the clock stays below the horizon inside
// the window, and a window only starts on a kernel whose next event lies
// below it.
func (k *Kernel) pick() *Proc {
	for !k.stopped {
		var ev event
		switch {
		case k.fifo.n > 0:
			if len(k.queue) > 0 && k.queue[0].at == k.now && k.queue[0].seq < k.fifo.buf[k.fifo.head].seq {
				ev = k.queue.pop()
			} else {
				ev = k.fifo.pop()
			}
		case len(k.queue) > 0:
			if k.bounded && k.queue[0].at >= k.horizon {
				return nil // window exhausted: leave future events for the next window
			}
			ev = k.queue.pop()
		default:
			return nil
		}
		k.now = ev.at
		if p := ev.proc; p != nil {
			if p.dead { // a stale activation of an exited process
				continue
			}
			if m := p.m; m != nil {
				k.stepping = p
				done := p.advance(m)
				k.stepping = nil
				if !done {
					continue // the machine filed p's next wait
				}
				p.m = nil
			}
			if k.onResume != nil {
				k.onResume(p)
			}
			return p
		}
		if ev.fn != nil {
			ev.fn()
		}
	}
	return nil
}

// stepPanic ends an Advance of a driven machine that pick left unfinished,
// if any. It ran on whichever side held control, so its panic r is
// re-raised as the driving process's own *PanicError, as if that process
// had run the code itself; a runtime.Goexit (r == nil) goes on.
func (k *Kernel) stepPanic(r any) {
	g := k.stepping
	if g == nil {
		return
	}
	k.stepping = nil
	if r != nil {
		panic(&PanicError{Proc: g.name, Value: r, Stack: debug.Stack()})
	}
}

// loop is the dispatch loop of Run and runWindow: it switches into each
// activated process in turn. A process comes back here only when it parks
// on another process's activation or exits, leaving the process to switch
// to next (nil when there is none) in k.next.
func (k *Kernel) loop() {
	for p := k.pick(); p != nil; p = k.next {
		k.resume(p)
	}
}

// run is the body of p's coroutine. An exiting process picks the next
// activation itself, as a parking one does, and leaves it for the loop.
func (p *Proc) run() {
	k := p.k
	defer k.reap(p)
	p.fn(p)
	k.retire(p)
	p.done.Fire()
	k.next = k.pick() // never p: stale activations of a dead process are skipped
}

// retire removes an exited or unwound process from the kernel's books.
func (k *Kernel) retire(p *Proc) {
	p.dead, p.m = true, nil
	if !p.daemon {
		k.alive--
	}
	delete(k.procs, p.id)
}

// OnResume installs fn to be called with every process the kernel resumes,
// whether it switches into the process or the process picked its own
// activation, and not at activations that leave a process parked in Drive. It exists for tests that count resumes; nil removes it.
func (k *Kernel) OnResume(fn func(*Proc)) { k.onResume = fn }

// unwind is the panic value that ends a process parked at Close.
type unwind struct{}

// Close tears the world down once Run has returned. Every process still
// parked — daemons between jobs, procs blocked forever — is unwound: its
// coroutine is stopped, so it panics out of park, runs the process's
// deferred calls, and exits. A deferred call that blocks panics out of
// park in turn; events it schedules never run. A process never started
// is retired without running, and so is one that a deferred call spawns.
// Pending events are dropped. Without Close those coroutines stay parked
// for the life of the program and pin everything their world references.
// Processes unwind one at a time in pid order, so teardown is as
// deterministic as the run. The kernel must not be used afterwards;
// closing twice is a no-op. The world runners, mpi.Job.Run and ccl.Run,
// call Close when their Run returns, so a world built on them runs once
// and releases itself; only code that drives a bare kernel with Run calls
// Close itself. Close a Sharded engine's kernels through Sharded.Close.
func (k *Kernel) Close() {
	k.unwindAll()
	k.dropEvents()
}

// dropEvents discards every pending event.
func (k *Kernel) dropEvents() {
	k.queue, k.fifo = nil, nowQueue{}
}

// unwindAll unwinds every remaining process, including any that deferred
// calls spawn while unwinding.
func (k *Kernel) unwindAll() {
	if k.running {
		panic("sim: Close on a running kernel")
	}
	// stopped keeps a process that parks while unwinding from running
	// events: its pick finds nothing and its yield reports the stop.
	k.stopped = true
	for len(k.procs) > 0 {
		var p *Proc
		for _, q := range k.procs {
			if p == nil || q.id < p.id {
				p = q
			}
		}
		if p.stop == nil {
			k.retire(p) // never started
			continue
		}
		p.stop()
	}
}

// reap runs deferred at the top of every process coroutine. A normal return
// passes through. An unwinding started by Close, a runtime.Goexit (e.g.
// t.FailNow inside a process, which iter.Pull re-raises on the loop's
// goroutine) and a genuine panic retire the process; the panic then
// continues as a *PanicError, which the loop's goroutine re-raises, so it
// surfaces from Run. A panic in a driven machine that p's pick advanced is
// its driving process's (stepPanic); one in an exiting p's pick passes on
// to the loop's goroutine, where Run or runWindow attributes it.
func (k *Kernel) reap(p *Proc) {
	if p.dead {
		return // fn returned normally
	}
	r := recover()
	k.retire(p)
	k.stepPanic(r)
	switch r.(type) {
	case nil, unwind:
	default:
		panic(&PanicError{Proc: p.name, Value: r, Stack: debug.Stack()})
	}
}

// Run executes events until the queue drains. It returns a
// *DeadlockError if processes remain blocked with no pending events. A
// panic inside a process surfaces from Run as a *PanicError.
func (k *Kernel) Run() error {
	if k.running {
		return fmt.Errorf("sim: kernel already running")
	}
	k.running = true
	defer func() {
		k.running = false
		if k.stepping != nil {
			k.stepPanic(recover()) // a machine's panic that reached the loop's goroutine
		}
	}()
	k.loop()
	if k.alive > 0 {
		return &DeadlockError{Now: k.now, Blocked: k.blockedNames()}
	}
	return nil
}

// runWindow executes events strictly before horizon on the calling goroutine
// and returns with the queue and parked processes intact. It is the per-shard
// body of one conservative synchronization window (see shard.go).
func (k *Kernel) runWindow(horizon Time) {
	k.running = true
	k.bounded, k.horizon = true, horizon
	defer func() {
		k.bounded, k.running = false, false
		if k.stepping != nil {
			k.stepPanic(recover()) // a machine's panic that reached the loop's goroutine
		}
	}()
	k.loop()
}

// nextAt reports the fire time of the earliest pending event, if any.
func (k *Kernel) nextAt() (Time, bool) {
	switch {
	case k.fifo.n > 0:
		return k.now, true
	case len(k.queue) > 0:
		return k.queue[0].at, true
	}
	return 0, false
}
