package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The kernel files events due at the current instant in a FIFO and later
// ones in a heap, and merges the two. These tests check the merge against
// the definition: every activation runs in (time, seq) order, where seq is
// the kernel's schedule counter at the moment the event was scheduled.

// orderEntry is one activation: when it is due, the seq it was scheduled
// with, and the label its process or callback logs when it runs.
type orderEntry struct {
	at    Time
	seq   uint64
	label int
}

// orderModel drives one kernel through a random mix of Sleep(0), Sleep(d),
// Event.Fire wake-ups, After callbacks, Spawns at the current instant,
// acquires and releases of one contended Resource by processes (each
// driving a one-wait AcquireUpTo machine, so it queues in the resource's
// FIFO line as a process), machines run as kernel callbacks (Kernel.Start)
// and machines driven on processes (Proc.Drive), and driven machines that
// sleep, sleep again at that activation, wait on an event and on the
// resource, and end. Every scheduling call first records the entry it
// expects (reading the kernel's next seq), and every activation logs its
// label when it runs: a driven machine logs it from the kernel, in its
// slot.
type orderModel struct {
	k       *Kernel
	rng     *rand.Rand
	want    []orderEntry
	got     []orderEntry
	events  []*Event
	pending map[*Proc]int // label of a parked waiter's wake-up
	labels  int
	spawns  int

	res     *Resource
	queue   []*resReq // the requests queued on res, in the model's order
	tickets int       // requests made of res so far
	grants  []int     // request tickets in the order res granted them
	waited  [3]int    // requests that queued: by processes, kernel-callback and driven machines
	guards  [2]int    // driven machines run, and those that waited on an unfired event
}

// resReq is one request of the model's resource: its arrival ticket, and,
// once Release admits it, the label of its wake-up or continuation.
type resReq struct {
	ticket, label int
}

// orderEnd is when a cleanup callback fires every event of the pool, so
// no waiter is stranded; processes do not wait after it.
const orderEnd Time = 1000

func newOrderModel(k *Kernel, seed int64) *orderModel {
	m := &orderModel{k: k, rng: rand.New(rand.NewSource(seed)), pending: map[*Proc]int{}, res: NewResource(k, 3)}
	for i := 0; i < 3; i++ {
		m.events = append(m.events, NewEvent(k))
	}
	for i, n := 0, 2+m.rng.Intn(4); i < n; i++ {
		m.spawn(20 + m.rng.Intn(20))
	}
	m.after(orderEnd, func() {
		for i := range m.events {
			m.fire(i)
		}
	})
	return m
}

// expect records an activation due at at, scheduled with the kernel's next
// seq, and returns its label.
func (m *orderModel) expect(at Time, seq uint64) int {
	m.labels++
	m.want = append(m.want, orderEntry{at: at, seq: seq, label: m.labels})
	return m.labels
}

func (m *orderModel) log(label int) {
	m.got = append(m.got, orderEntry{at: m.k.now, label: label})
}

func (m *orderModel) spawn(budget int) {
	label := m.expect(m.k.now, m.k.seq)
	m.k.Spawn(fmt.Sprintf("p%d", label), func(p *Proc) {
		m.log(label)
		m.run(p, budget)
	})
}

func (m *orderModel) after(d Time, fn func()) {
	label := m.expect(m.k.now+d, m.k.seq)
	m.k.After(d, func() {
		m.log(label)
		fn()
	})
}

// fire wakes every waiter of pool event i, one seq each in wait order, and
// replaces the event with a fresh one.
func (m *orderModel) fire(i int) {
	e := m.events[i]
	for j, w := range e.waiters {
		m.pending[w] = m.expect(m.k.now, m.k.seq+uint64(j))
	}
	e.Fire()
	m.events[i] = NewEvent(m.k)
}

// request makes the next request of the model's resource and reports
// whether it is granted at once: nobody is queued and a unit is free.
// Otherwise it joins the model's queue, as it joins the resource's.
func (m *orderModel) request() (*resReq, bool) {
	m.tickets++
	q := &resReq{ticket: m.tickets}
	if len(m.res.waitq) == 0 && m.res.inUse < m.res.capacity {
		m.grants = append(m.grants, q.ticket)
		return q, true
	}
	m.queue = append(m.queue, q)
	return q, false
}

// release returns n units. Release admits a prefix of the queue, and each
// admitted request's wake-up or continuation is due now, one seq each in
// queue order: the slot where it would wake a process.
func (m *orderModel) release(n int) {
	before, seq := len(m.res.waitq), m.k.seq
	m.res.Release(n)
	admitted := before - len(m.res.waitq)
	for i, q := range m.queue[:admitted] {
		q.label = m.expect(m.k.now, seq+uint64(i))
		m.grants = append(m.grants, q.ticket)
	}
	m.queue = m.queue[admitted:]
}

// acquireFunc runs a machine as kernel callbacks that acquires up to 1–3
// units, holds them for 0–3 ns and releases them from an After callback.
func (m *orderModel) acquireFunc() {
	q, now := m.request()
	asked, ran, got := false, false, 0
	m.k.Start(new(Task), machineFunc(func() Wait {
		if !asked {
			asked = true
			return AcquireUpTo(m.res, 1+m.rng.Intn(3), &got)
		}
		ran = true
		if !now {
			m.waited[1]++
			m.log(q.label)
		}
		m.after(Time(m.rng.Intn(4)), func() { m.release(got) })
		return Wait{}
	}), func() {})
	if ran != now {
		panic(fmt.Sprintf("request %d: machine ran on inline = %v, granted at once = %v", q.ticket, ran, now))
	}
}

func (m *orderModel) run(p *Proc, budget int) {
	for ; budget > 0; budget-- {
		switch m.rng.Intn(9) {
		case 0, 1:
			// Sleep(0) and short sleeps land on shared instants often.
			d := Time(m.rng.Intn(4))
			label := m.expect(m.k.now+d, m.k.seq)
			p.Sleep(d)
			m.log(label)
		case 2:
			if m.k.now >= orderEnd {
				continue
			}
			e := m.events[m.rng.Intn(len(m.events))]
			e.Wait(p)
			m.log(m.pending[p])
		case 3:
			m.fire(m.rng.Intn(len(m.events)))
		case 4:
			i := m.rng.Intn(len(m.events))
			m.after(Time(m.rng.Intn(3)), func() {
				switch m.rng.Intn(3) {
				case 0:
					m.fire(i)
				case 1:
					m.acquireFunc()
				}
			})
		case 5:
			if m.spawns < 8 {
				m.spawns++
				m.spawn(budget / 2)
			}
		case 6:
			q, now := m.request()
			n := acquireUpTo(p, m.res, 1+m.rng.Intn(3))
			if !now {
				m.waited[0]++
				m.log(q.label)
			}
			d := Time(m.rng.Intn(4))
			label := m.expect(m.k.now+d, m.k.seq)
			p.Sleep(d)
			m.log(label)
			m.release(n)
		case 7:
			m.acquireFunc()
		case 8:
			m.guarded(p)
		}
	}
}

// guarded drives one machine on p. It sleeps when called; at that
// activation it sleeps again; then it waits on a pool event (before
// orderEnd) and acquires up to 1–3 units of the resource, queueing when it
// is contended; it holds them over a last sleep, and at that activation
// releases them and ends, and p resumes. Each activation logs its label,
// the runner must advance the machine in place exactly when the model
// expects a wait to be satisfied already, and p must resume in the last
// activation's slot.
func (m *orderModel) guarded(p *Proc) {
	m.guards[0]++
	var (
		phase, got int
		wake       func() int // the label of p's pending activation
		inPlace    bool       // the last wait should be satisfied at once
		seq        uint64     // the kernel's seq when the last wait was returned
	)
	sleep := func() Wait {
		d := Time(m.rng.Intn(4))
		label := m.expect(m.k.now+d, m.k.seq)
		wake = func() int { return label }
		return Sleep(d)
	}
	last := 0
	p.Drive(machineFunc(func() Wait {
		if phase == 3 || phase == 4 {
			// Anything the runner filed and was woken from took a seq.
			if ran := m.k.seq == seq; ran != inPlace {
				panic(fmt.Sprintf("phase %d: advanced in place = %v, want %v", phase, ran, inPlace))
			}
		}
		if wake != nil {
			last = wake()
			m.log(last)
			wake = nil
		}
		for {
			phase++
			switch phase {
			case 1, 2, 5:
				return sleep()
			case 3:
				if m.k.now >= orderEnd {
					continue
				}
				e := m.events[m.rng.Intn(len(m.events))]
				if inPlace, seq = e.Fired(), m.k.seq; !inPlace {
					m.guards[1]++
					wake = func() int { return m.pending[p] }
				}
				return Await(e)
			case 4:
				q, now := m.request()
				if inPlace, seq = now, m.k.seq; !now {
					m.waited[2]++
					wake = func() int { return q.label }
				}
				return AcquireUpTo(m.res, 1+m.rng.Intn(3), &got)
			default:
				m.release(got)
				return Wait{}
			}
		}
	}))
	if got := m.got[len(m.got)-1]; got.label != last || got.at != m.k.now {
		panic(fmt.Sprintf("driven machine resumed at %v after activation %d; want the slot of its last activation %d", m.k.now, got.label, last))
	}
}

// check compares the activation trace with the expected entries sorted by
// (time, seq), and requires the resource to have granted every request in
// arrival order.
func (m *orderModel) check(t *testing.T, name string) {
	t.Helper()
	if len(m.grants) != m.tickets || len(m.queue) != 0 {
		t.Fatalf("%s: %d of %d resource requests granted", name, len(m.grants), m.tickets)
	}
	for i, g := range m.grants {
		if g != i+1 {
			t.Fatalf("%s: resource grant %d went to request %d; want FIFO", name, i+1, g)
		}
	}
	want := slices.Clone(m.want)
	slices.SortFunc(want, func(x, y orderEntry) int {
		if c := cmp.Compare(x.at, y.at); c != 0 {
			return c
		}
		return cmp.Compare(x.seq, y.seq)
	})
	if len(m.got) != len(want) {
		t.Fatalf("%s: %d activations ran, %d scheduled", name, len(m.got), len(want))
	}
	for i, g := range m.got {
		if w := want[i]; g.at != w.at || g.label != w.label {
			t.Fatalf("%s: activation %d is label %d at %v, want label %d at %v (seq %d)",
				name, i, g.label, g.at, w.label, w.at, w.seq)
		}
	}
}

func TestEventOrderKernel(t *testing.T) {
	var waited [3]int
	var guards [2]int
	for seed := int64(1); seed <= 200; seed++ {
		k := NewKernel()
		m := newOrderModel(k, seed)
		if err := k.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m.check(t, fmt.Sprintf("seed %d", seed))
		k.Close()
		for i := range waited {
			waited[i] += m.waited[i]
		}
		guards[0] += m.guards[0]
		guards[1] += m.guards[1]
	}
	if waited[0] == 0 || waited[1] == 0 || waited[2] == 0 {
		t.Errorf("contended resource requests: %d by processes, %d by kernel-callback machines, %d by driven machines; want some of each",
			waited[0], waited[1], waited[2])
	}
	if guards[1] == 0 {
		t.Errorf("%d driven machines, none of which waited on an unfired event; want some", guards[0])
	}
}

// Each shard runs a model of its own; the windows (lookahead 2, and the
// one-tick barrier-advance windows of lookahead 0) bound every shard's
// dispatch, which must not reorder anything.
func TestEventOrderSharded(t *testing.T) {
	for _, lookahead := range []Time{2, 0} {
		for seed := int64(1); seed <= 50; seed++ {
			s := NewSharded(3, lookahead)
			models := make([]*orderModel, s.Shards())
			for i := range models {
				models[i] = newOrderModel(s.Kernel(i), seed*10+int64(i))
			}
			if err := s.Run(); err != nil {
				t.Fatalf("lookahead %v seed %d: %v", lookahead, seed, err)
			}
			for i, m := range models {
				m.check(t, fmt.Sprintf("lookahead %v seed %d shard %d", lookahead, seed, i))
			}
			s.Close()
		}
	}
}
