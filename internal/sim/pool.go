package sim

import "strconv"

// Pool is a grow-on-demand set of resident worker processes that run jobs
// of type J. Post hands a job to an idle worker or, when every worker is
// busy, spawns another, so any number of jobs may be outstanding. Workers
// are named once, "<name><i>", and live for the rest of the run.
//
// A worker with a job in hand counts as live and an idle one as a daemon
// (Proc.SetDaemon): a job that blocks forever is still a reported deadlock
// naming its worker, while parked idle workers let Run end. Kernel.Close
// unwinds both.
//
// Virtual time is exactly that of spawning a process per job. The first
// post spawns a worker where the per-job Spawn stood, and the worker takes
// the job as it starts. After each job the worker parks before any other
// process runs, as an exiting spawned process would dispatch the next
// activation. A later post finds it parked, and waking it schedules its
// activation at the current instant with the next sequence number: the
// (time, seq) slot a Spawn would take. The job then runs the same sleeps
// and waits a spawned process would.
type Pool[J any] struct {
	name string
	run  func(*Proc, J)
	idle []*poolWorker[J]
	n    int // workers spawned; numbers the next one's name
}

// poolWorker is one resident worker and the job it was handed.
type poolWorker[J any] struct {
	p   *Proc
	job J
}

// NewPool returns an empty pool whose workers run each posted job with run.
func NewPool[J any](name string, run func(*Proc, J)) *Pool[J] {
	return &Pool[J]{name: name, run: run}
}

// Post runs j on one of the pool's workers, spawning one on k if none is
// idle. Every post to a pool must pass the same kernel.
func (pl *Pool[J]) Post(k *Kernel, j J) {
	if n := len(pl.idle); n > 0 {
		w := pl.idle[n-1]
		pl.idle = pl.idle[:n-1]
		w.job = j
		w.p.SetDaemon(false)
		w.p.unpark()
		return
	}
	w := &poolWorker[J]{job: j}
	w.p = k.Spawn(pl.name+strconv.Itoa(pl.n), func(p *Proc) {
		var zero J
		for {
			pl.run(p, w.job) // Post hands jobs only to idle workers: w.job holds still
			w.job = zero     // an idle worker pins nothing its last job referenced
			p.SetDaemon(true)
			pl.idle = append(pl.idle, w)
			p.park("idle")
		}
	})
	pl.n++
}

// Workers reports how many workers the pool has spawned and how many of
// them are idle.
func (pl *Pool[J]) Workers() (all, idle int) { return pl.n, len(pl.idle) }
