package sim

// Resource is a counting semaphore in virtual time with FIFO admission: a
// fixed capacity of units that processes, or callbacks (AcquireUpToFunc),
// acquire and release. It models contended hardware such as a link, a copy
// engine, or a NIC queue.
type Resource struct {
	k        *Kernel
	capacity int
	inUse    int
	waitq    []*resWait
	wfree    []*resWait
}

// resWait is one queued request: a parked process p, or, when p is nil, a
// callback continuation then. n is the request (negative for an adaptive
// one) until Release writes the grant into it. A process waiter's grant is
// copied to got before the process is woken.
type resWait struct {
	r    *Resource
	p    *Proc
	n    int
	got  *int
	then func(granted int)
	wake func() // w.grant, bound once per node: the event Release files for then
}

// getWait recycles waiter nodes so contended acquires do not allocate in
// steady state. A process waiter's node is freed by Release once it has
// copied the grant out, and a callback waiter's node by grant before the
// continuation runs.
func (r *Resource) getWait(p *Proc, n int) *resWait {
	if l := len(r.wfree); l > 0 {
		w := r.wfree[l-1]
		r.wfree = r.wfree[:l-1]
		w.p, w.n = p, n
		return w
	}
	return &resWait{r: r, p: p, n: n}
}

func (r *Resource) putWait(w *resWait) {
	w.p, w.got, w.then = nil, nil, nil
	r.wfree = append(r.wfree, w)
}

// queue files p as a waiter for n units (-max for an adaptive request)
// without blocking; Release writes the grant to *got before it wakes p.
func (r *Resource) queue(p *Proc, n int, got *int) {
	w := r.getWait(p, n)
	w.got = got
	r.waitq = append(r.waitq, w)
	p.blocked = "resource"
}

// grant runs a callback waiter's continuation with the units Release
// granted it.
func (w *resWait) grant() {
	then, n := w.then, w.n
	w.r.putWait(w)
	then(n)
}

// NewResource returns a resource with the given unit capacity.
func NewResource(k *Kernel, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{k: k, capacity: capacity}
}

// InUse reports the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Acquire blocks p until n units are available, then takes them. Requests
// are granted strictly in arrival order, so a large request is not starved
// by a stream of small ones.
func (r *Resource) Acquire(p *Proc, n int) {
	if n > r.capacity {
		n = r.capacity
	}
	if len(r.waitq) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	var got int
	r.queue(p, n, &got)
	p.wait()
}

// AcquireUpTo takes between 1 and max units, preferring as many as are
// free right now. If nothing is free (or waiters are queued ahead), it
// blocks FIFO until at least one unit is available and then takes up to max.
// It returns the number of units granted. This adaptive grant is how
// multi-channel transfers share a link pool fairly: a lone transfer gets the
// whole pool, two opposing transfers converge to half each.
func (r *Resource) AcquireUpTo(p *Proc, max int) int {
	var n int
	if !r.AcquireUpToStep(p, max, &n) {
		p.wait()
	}
	return n
}

// AcquireUpToStep is AcquireUpTo for a guarded step (see Proc.Guarded). When
// units are free at once, it writes the grant to *got and reports true.
// Otherwise it queues p as AcquireUpTo does and reports false without
// blocking; Release writes the grant to *got before it wakes p, so the step
// finds it there at that activation.
func (r *Resource) AcquireUpToStep(p *Proc, max int, got *int) bool {
	max = r.clampUpTo(max)
	if n, ok := r.takeUpTo(max); ok {
		*got = n
		return true
	}
	r.queue(p, -max, got) // negative marks an adaptive request
	return false
}

// AcquireUpToFunc is the callback form of AcquireUpTo, for work that runs
// as kernel callbacks instead of on a process. It grants the same units in
// the same order: the request queues FIFO in the same line as process
// waiters. When units are free at once, then runs inline with the grant.
// Otherwise Release files then as an event at the current instant, in the
// slot where it would wake a waiting process, and then runs there.
func (r *Resource) AcquireUpToFunc(max int, then func(granted int)) {
	max = r.clampUpTo(max)
	if n, ok := r.takeUpTo(max); ok {
		then(n)
		return
	}
	w := r.getWait(nil, -max)
	w.then = then
	if w.wake == nil {
		w.wake = w.grant
	}
	r.waitq = append(r.waitq, w)
}

// clampUpTo bounds an adaptive request to [1, capacity].
func (r *Resource) clampUpTo(max int) int {
	if max < 1 {
		max = 1
	}
	if max > r.capacity {
		max = r.capacity
	}
	return max
}

// takeUpTo grants up to max units at once when nobody is queued and a unit
// is free.
func (r *Resource) takeUpTo(max int) (int, bool) {
	if len(r.waitq) > 0 || r.inUse >= r.capacity {
		return 0, false
	}
	n := r.capacity - r.inUse
	if n > max {
		n = max
	}
	r.inUse += n
	return n, true
}

// Release returns n units and admits as many queued waiters as now fit, in
// queue order: each admitted process is woken, and each admitted callback
// filed, at the current instant.
func (r *Resource) Release(n int) {
	r.inUse -= n
	if r.inUse < 0 {
		r.inUse = 0
	}
	admitted := 0
	for _, w := range r.waitq {
		if w.n < 0 { // adaptive request: grant whatever is free, up to -w.n
			free := r.capacity - r.inUse
			if free < 1 {
				break
			}
			grant := -w.n
			if grant > free {
				grant = free
			}
			w.n = grant
		} else if r.inUse+w.n > r.capacity {
			break
		}
		admitted++
		r.inUse += w.n
		if w.p != nil {
			*w.got = w.n
			w.p.unpark()
			r.putWait(w)
		} else {
			r.k.schedule(r.k.now, w.wake)
		}
	}
	if admitted > 0 {
		// Dequeue by copy-down, so the queue's backing array is reused.
		rest := copy(r.waitq, r.waitq[admitted:])
		clear(r.waitq[rest:])
		r.waitq = r.waitq[:rest]
	}
}

// Use acquires n units, runs for the given busy time, and releases. It is
// the common "hold the link while the bytes fly" pattern.
func (r *Resource) Use(p *Proc, n int, busy Time) {
	r.Acquire(p, n)
	p.Sleep(busy)
	r.Release(n)
}
