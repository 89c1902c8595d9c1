package sim

// Resource is a counting semaphore in virtual time with FIFO admission: a
// fixed capacity of units that machines, driven on a process (Proc.Drive)
// or run as kernel callbacks (Kernel.Start), acquire with an AcquireUpTo
// wait and release. It models contended hardware such as a link, a copy
// engine, or a NIC queue.
type Resource struct {
	k        *Kernel
	capacity int
	inUse    int
	waitq    []resWait
}

// resWait is one queued adaptive request for up to max units: a parked
// process p, or, when p is nil, a task t. Release writes the grant to got
// before it wakes p or files t's next step.
type resWait struct {
	p   *Proc
	t   *Task
	max int
	got *int
}

// NewResource returns a resource with the given unit capacity.
func NewResource(k *Kernel, capacity int) *Resource {
	if capacity < 1 {
		capacity = 1
	}
	return &Resource{k: k, capacity: capacity}
}

// acquireUpToStep takes between 1 and upTo units for process p or task t
// without blocking, preferring as many as are free right now. When units
// are free and nobody is queued ahead, it writes the grant to *got and
// reports true. Otherwise it queues the waiter FIFO and reports false;
// Release writes the grant to *got before it wakes p or files t's next
// step. This adaptive grant is how multi-channel transfers share a link
// pool fairly: a lone transfer gets the whole pool, two opposing transfers
// converge to half each.
func (r *Resource) acquireUpToStep(p *Proc, t *Task, upTo int, got *int) bool {
	upTo = min(max(upTo, 1), r.capacity)
	if len(r.waitq) == 0 && r.inUse < r.capacity {
		n := min(r.capacity-r.inUse, upTo)
		r.inUse += n
		*got = n
		return true
	}
	r.waitq = append(r.waitq, resWait{p: p, t: t, max: upTo, got: got})
	if p != nil {
		p.blocked = "resource"
	}
	return false
}

// Release returns n units and admits queued waiters in queue order while a
// unit is free, each granted what is free up to its max: each admitted
// process is woken, and each admitted task's next step filed, at the
// current instant. Releasing more units than are held panics.
func (r *Resource) Release(n int) {
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: Resource.Release of more units than are held")
	}
	admitted := 0
	for i := range r.waitq {
		free := r.capacity - r.inUse
		if free < 1 {
			break
		}
		w := &r.waitq[i]
		grant := min(w.max, free)
		admitted++
		r.inUse += grant
		*w.got = grant
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
