package sim

// Event is a one-shot broadcast signal in virtual time. Processes block on
// Wait until some other activity calls Fire; waiting on an already-fired
// event returns immediately. Events are the building block for process
// completion (Proc.Done) and request/handle patterns in higher layers. The
// zero Event is unfired and ready to use, so a handle can embed one.
type Event struct {
	k       *Kernel
	fired   bool
	waiters []*Proc
}

// NewEvent returns an unfired event bound to k.
func NewEvent(k *Kernel) *Event { return &Event{k: k} }

// Fired reports whether Fire has been called.
func (e *Event) Fired() bool { return e.fired }

// Fire signals the event, waking every waiter at the current virtual time.
// Firing twice is a no-op.
func (e *Event) Fire() {
	if e.fired {
		return
	}
	e.fired = true
	for i, w := range e.waiters {
		w.unpark()
		e.waiters[i] = nil // drop the reference, keep the capacity for Reset reuse
	}
	e.waiters = e.waiters[:0]
}

// Wait blocks p until the event fires.
func (e *Event) Wait(p *Proc) {
	if !e.waitStep(p) {
		p.wait()
	}
}

// waitStep reports true when the event has fired, and otherwise registers p
// as a waiter and reports false without blocking.
func (e *Event) waitStep(p *Proc) bool {
	if e.fired {
		return true
	}
	e.waiters = append(e.waiters, p)
	p.blocked = "event"
	return false
}

// Reset returns a fired event to the unfired state so persistent handles
// can reuse one event across waves instead of allocating a fresh one per
// operation. Resetting an event that still has blocked waiters would strand
// them silently, so that is a model bug and panics.
func (e *Event) Reset() {
	if len(e.waiters) > 0 {
		panic("sim: Event.Reset with blocked waiters")
	}
	e.fired = false
}

// Counter is a countdown latch: it fires an event when Add has been balanced
// by Done calls. It generalizes sync.WaitGroup into virtual time.
type Counter struct {
	k     *Kernel
	n     int
	event *Event
}

// NewCounter returns a latch expecting n completions.
func NewCounter(k *Kernel, n int) *Counter {
	c := &Counter{k: k, n: n, event: NewEvent(k)}
	if n <= 0 {
		c.event.Fire()
	}
	return c
}

// Done records one completion; the Wait event fires when the count reaches
// zero. Like sync.WaitGroup, overshooting the count is a model bug that
// would otherwise hang the simulation silently, so it panics.
func (c *Counter) Done() {
	c.n--
	if c.n == 0 {
		c.event.Fire()
	}
	if c.n < 0 {
		panic("sim: Counter.Done called more times than the count passed to NewCounter")
	}
}

// Wait blocks p until the count reaches zero.
func (c *Counter) Wait(p *Proc) { c.event.Wait(p) }

// Pending reports the completions still outstanding.
func (c *Counter) Pending() int { return c.n }

// Reset re-arms a drained latch for n more completions, reusing its event.
// Executors recycle one counter each instead of allocating a fresh latch
// per step. Resetting with completions still outstanding is a model bug
// and panics.
func (c *Counter) Reset(n int) {
	if c.n > 0 {
		panic("sim: Counter.Reset with completions outstanding")
	}
	c.event.Reset()
	c.n = n
	if n <= 0 {
		c.event.Fire()
	}
}

// Barrier synchronizes a fixed party count: each arrival blocks until all
// parties have arrived, then every party resumes and the barrier resets for
// reuse (a cyclic barrier).
type Barrier struct {
	k       *Kernel
	parties int
	waiting []*Proc
}

// NewBarrier returns a reusable barrier for the given number of parties.
func NewBarrier(k *Kernel, parties int) *Barrier {
	return &Barrier{k: k, parties: parties}
}

// Wait blocks p until all parties have arrived. The last arrival does not
// block; it releases the others.
func (b *Barrier) Wait(p *Proc) {
	if b.parties <= 1 {
		return
	}
	if len(b.waiting)+1 == b.parties {
		for _, w := range b.waiting {
			w.unpark()
		}
		b.waiting = b.waiting[:0]
		return
	}
	b.waiting = append(b.waiting, p)
	p.park("barrier")
}
