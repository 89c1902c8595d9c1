package sim

import "time"

// Machine is an activity written as a state machine rather than as process
// code: Advance runs it from where its last wait left it up to its next
// wait and returns that wait, or returns the zero Wait once it is done. It
// must not block. A machine runs on a process (Proc.Drive) or as kernel
// callbacks (Kernel.Start); either runner files each wait in the slot where
// the process version of the code would file it. A machine that runs
// another forwards: it returns the inner machine's waits until the inner
// one is done.
type Machine interface{ Advance() Wait }

// Wait is one wait of a machine: a sleep (Sleep), a wait on an event
// (Await), an adaptive acquire of a resource (AcquireUpTo), or, as the
// zero value, the machine's end. It has four fields, so the compiler keeps
// one in registers as it passes up through forwarding machines.
type Wait struct {
	n   time.Duration // a sleep's length plus one, or an acquire's max units
	e   *Event
	r   *Resource
	got *int
}

// Sleep is a wait of d of virtual time, as Proc.Sleep waits.
func Sleep(d time.Duration) Wait { return Wait{n: max(d, 0) + 1} }

// Await is a wait until e fires, as Event.Wait waits.
func Await(e *Event) Wait { return Wait{e: e} }

// AcquireUpTo is a wait for between 1 and max units of r: as many as are
// free when nobody is queued ahead, else, in FIFO order, what Release
// frees, up to max. The runner writes the grant to *got before the
// machine advances again.
func AcquireUpTo(r *Resource, max int, got *int) Wait {
	return Wait{n: time.Duration(max), r: r, got: got}
}

// Done reports whether w is the zero Wait, which ends its machine.
func (w Wait) Done() bool { return w == Wait{} }

// Drive runs m on p until it is done. Advance runs now, on p, and then at
// each of p's activations, in the kernel, in the activation's own
// (time, seq) slot, while p stays parked: p resumes once, when Drive
// returns. Each wait is filed as the blocking form files it, with the same
// reason in a deadlock report: a sleep as p's activation, an event wait as
// p in the event's waiter list, a contended acquire as p in the resource's
// FIFO line. A wait already satisfied (a fired event, free units) advances
// m again in place. So every event a driven machine files is one that the
// process version files, in the same slot. A panic in Advance surfaces from
// Run as p's *PanicError, wherever it ran. A stale activation of a process
// that has exited is skipped without advancing its machine, and Close
// unwinds a process parked in Drive like any other.
func (p *Proc) Drive(m Machine) {
	if p.advance(m) {
		return
	}
	p.m = m
	p.wait()
}

// advance runs m until it files a wait on p, and reports false, or until it
// is done, and reports true.
func (p *Proc) advance(m Machine) bool {
	for {
		w := m.Advance()
		switch {
		case w.r != nil:
			if !w.r.acquireUpToStep(p, nil, int(w.n), w.got) {
				return false
			}
		case w.e != nil:
			if !w.e.waitStep(p) {
				return false
			}
		case w.n > 0:
			p.sleepStep(w.n - 1)
			return false
		default:
			return true
		}
	}
}

// Task runs a machine as kernel callbacks (Kernel.Start). The zero value is
// ready to use: a caller embeds one per machine it runs this way and reuses
// it, and its step is bound once, at the first Start.
type Task struct {
	k      *Kernel
	m      Machine
	then   func()
	stepFn func()
}

// Start runs m as kernel callbacks and calls then when m is done, in the
// slot of its last step. Advance runs now, before Start returns, and then
// in the events its waits file, each in the slot where it would wake a
// process: a sleep is an event d from now (After), and a contended acquire
// queues t in the resource's FIFO line beside process waiters, where
// Release files t's next step at the current instant. Start runs sleep and
// acquire waits only. A machine that waits on an event must run on a
// process (Proc.Drive), which a deadlock report can name, and panics here.
// t must not be restarted before then runs.
func (k *Kernel) Start(t *Task, m Machine, then func()) {
	if t.stepFn == nil {
		t.stepFn = t.step
	}
	t.k, t.m, t.then = k, m, then
	t.step()
}

// step advances t's machine until it files a wait, or calls then once the
// machine is done.
func (t *Task) step() {
	for {
		w := t.m.Advance()
		switch {
		case w.r != nil:
			if !w.r.acquireUpToStep(nil, t, int(w.n), w.got) {
				return
			}
		case w.e != nil:
			panic("sim: a machine started as kernel callbacks waits on an event; drive it on a process")
		case w.n > 0:
			t.k.schedule(t.k.now+w.n-1, t.stepFn)
			return
		default:
			then := t.then
			t.m, t.then = nil, nil
			then()
			return
		}
	}
}
