package sim

// Resource is a counting semaphore in virtual time with FIFO admission: a
// fixed capacity of units that processes acquire and release. It models
// contended hardware such as a link, a copy engine, or a NIC queue.
type Resource struct {
	k        *Kernel
	capacity int
	inUse    int
	waitq    []*resWait
	wfree    []*resWait
}

type resWait struct {
	p *Proc
	n int
}

// getWait recycles waiter nodes so contended acquires do not allocate in
// steady state; the waiter frees its node after it resumes (Release has
// written the grant into n by then).
func (r *Resource) getWait(p *Proc, n int) *resWait {
	if l := len(r.wfree); l > 0 {
		w := r.wfree[l-1]
		r.wfree = r.wfree[:l-1]
		w.p, w.n = p, n
		return w
	}
	return &resWait{p: p, n: n}
}

func (r *Resource) putWait(w *resWait) {
	w.p = nil
	r.wfree = append(r.wfree, w)
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
	w := r.getWait(p, n)
	r.waitq = append(r.waitq, w)
	p.park("resource")
	r.putWait(w)
}

// AcquireUpTo takes between 1 and max units, preferring as many as are
// free right now. If nothing is free (or waiters are queued ahead), it
// blocks FIFO until at least one unit is available and then takes up to max.
// It returns the number of units granted. This adaptive grant is how
// multi-channel transfers share a link pool fairly: a lone transfer gets the
// whole pool, two opposing transfers converge to half each.
func (r *Resource) AcquireUpTo(p *Proc, max int) int {
	if max < 1 {
		max = 1
	}
	if max > r.capacity {
		max = r.capacity
	}
	if len(r.waitq) == 0 && r.inUse < r.capacity {
		n := r.capacity - r.inUse
		if n > max {
			n = max
		}
		r.inUse += n
		return n
	}
	w := r.getWait(p, -max) // negative marks an adaptive request
	r.waitq = append(r.waitq, w)
	p.park("resource")
	n := w.n
	r.putWait(w)
	return n
}

// Release returns n units and admits as many queued waiters as now fit.
func (r *Resource) Release(n int) {
	r.inUse -= n
	if r.inUse < 0 {
		r.inUse = 0
	}
	for len(r.waitq) > 0 {
		w := r.waitq[0]
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
		r.waitq = r.waitq[1:]
		r.inUse += w.n
		w.p.unpark()
	}
}

// Use acquires n units, runs for the given busy time, and releases. It is
// the common "hold the link while the bytes fly" pattern.
func (r *Resource) Use(p *Proc, n int, busy Time) {
	r.Acquire(p, n)
	p.Sleep(busy)
	r.Release(n)
}
