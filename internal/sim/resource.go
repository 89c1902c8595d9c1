package sim

// Resource is a counting semaphore in virtual time with FIFO admission: a
// fixed capacity of units that processes, or machines run as kernel
// callbacks (Kernel.Start), acquire and release. It models contended
// hardware such as a link, a copy engine, or a NIC queue.
type Resource struct {
	k        *Kernel
	capacity int
	inUse    int
	waitq    []resWait
}

// resWait is one queued request: a parked process p, or, when p is nil, a
// task t. n is the request (negative for an adaptive one). Release writes
// the grant to got before it wakes p or files t's next step.
type resWait struct {
	p   *Proc
	t   *Task
	n   int
	got *int
}

// queue files p or t as a waiter for n units (-max for an adaptive request)
// without blocking.
func (r *Resource) queue(p *Proc, t *Task, n int, got *int) {
	r.waitq = append(r.waitq, resWait{p: p, t: t, n: n, got: got})
	if p != nil {
		p.blocked = "resource"
	}
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
	r.queue(p, nil, n, &got)
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
	if !r.acquireUpToStep(p, nil, max, &n) {
		p.wait()
	}
	return n
}

// acquireUpToStep is AcquireUpTo without blocking, for process p or task t.
// When units are free at once, it writes the grant to *got and reports
// true. Otherwise it queues the waiter and reports false; Release writes
// the grant to *got before it wakes p or files t's next step.
func (r *Resource) acquireUpToStep(p *Proc, t *Task, max int, got *int) bool {
	max = r.clampUpTo(max)
	if n, ok := r.takeUpTo(max); ok {
		*got = n
		return true
	}
	r.queue(p, t, -max, got) // negative marks an adaptive request
	return false
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
// queue order: each admitted process is woken, and each admitted task's
// next step filed, at the current instant.
func (r *Resource) Release(n int) {
	r.inUse -= n
	if r.inUse < 0 {
		r.inUse = 0
	}
	admitted := 0
	for i := range r.waitq {
		w := &r.waitq[i]
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
		*w.got = w.n
		if w.p != nil {
			w.p.unpark()
		} else {
			r.k.schedule(r.k.now, w.t.stepFn)
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
