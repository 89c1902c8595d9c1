package sim

import "time"

// Proc is a simulated process: a coroutine scheduled cooperatively by the
// kernel. All Proc methods must be called from the process's own function
// (the fn passed to Kernel.Spawn); they are not safe to call from outside
// the simulation.
type Proc struct {
	k       *Kernel
	id      int
	name    string
	fn      func(*Proc)
	done    *Event
	dead    bool
	daemon  bool
	blocked string
	// m is the machine the process drives (see Drive): set while the
	// process parks in Drive, advanced by pick at each of its activations,
	// and cleared when it is done and the process resumes.
	m Machine

	// The coroutine (see coro.go), created at the first activation: pull
	// switches into it, yield back out to the loop, and stop unwinds it.
	pull  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
}

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// ID returns the process id, unique within its kernel.
func (p *Proc) ID() int { return p.id }

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Done returns an event fired when the process function returns.
func (p *Proc) Done() *Event { return p.done }

// SetDaemon moves p between daemon and live accounting (see
// Kernel.SpawnDaemon). Resident worker pools use it so that a worker parked
// between jobs, like any daemon, neither keeps the run going nor reads as
// deadlocked, while a worker holding a job counts as live: if the job
// blocks forever, Run reports the deadlock and names the worker. Unlike
// the other Proc methods it may be called by any process of p's kernel —
// typically the one handing p its next job. It is a no-op on a process that
// has exited.
func (p *Proc) SetDaemon(on bool) {
	if p.daemon == on || p.dead {
		return
	}
	p.daemon = on
	if on {
		p.k.alive--
	} else {
		p.k.alive++
	}
}

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// park blocks the process until another event resumes it. reason is shown in
// deadlock reports.
func (p *Proc) park(reason string) {
	p.blocked = reason
	p.wait()
}

// wait blocks the process until an activation resumes it. The parking
// process picks further events itself; on its own activation it simply
// returns, and only when another process (or none) comes up does it leave
// that to the loop and yield (see Kernel.loop). A yield ended by Close
// unwinds the process instead of returning.
func (p *Proc) wait() {
	k := p.k
	if q := k.pick(); q != p {
		k.next = q
		if !p.yield(struct{}{}) {
			panic(unwind{})
		}
	}
}

// sleepStep files p's next activation d of virtual time from now, without
// blocking.
func (p *Proc) sleepStep(d time.Duration) {
	k := p.k
	if d < 0 {
		d = 0
	}
	k.scheduleProc(k.now+d, p)
	p.blocked = "sleep"
}

// unpark schedules the process to resume at the current virtual time.
func (p *Proc) unpark() {
	k := p.k
	k.scheduleProc(k.now, p)
}

// Sleep blocks the process for d of virtual time. Non-positive durations
// yield the processor (the process resumes at the same virtual instant,
// after already-queued events). When no other process is runnable earlier,
// the sleeping process re-activates itself without any coroutine switch.
func (p *Proc) Sleep(d time.Duration) {
	p.sleepStep(d)
	p.wait()
}

// Join blocks until q's function has returned. Joining an already-finished
// process returns immediately.
func (p *Proc) Join(q *Proc) { q.done.Wait(p) }
