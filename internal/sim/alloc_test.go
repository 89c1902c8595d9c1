package sim

import (
	"testing"
	"time"
)

// These tests pin the allocation-free contract of the scheduler hot paths:
// steady-state event scheduling, the Sleep/park/unpark cycle, channel
// rendezvous, and Event.Fire must not allocate once their free lists and the
// event-queue backing array are warm. A regression here does not break
// correctness, but it puts the allocator back on the simulator's wall-clock
// profile, which is exactly what the PR-3 overhaul removed.

// warmQueue grows the backing arrays of both event queues — the
// same-instant FIFO and the future-event heap — to at least n slots, so
// that schedules during a measurement never grow them. It drains the
// events through pick, as a run would.
func warmQueue(k *Kernel, n int) {
	fn := func() {}
	for i := 0; i < n; i++ {
		k.schedule(k.now, fn)
		k.schedule(k.now+1, fn)
	}
	for k.pick() != nil {
	}
}

func TestScheduleAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delay Time
	}{{"now", 0}, {"future", time.Microsecond}} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			warmQueue(k, 256)
			fn := func() {}
			ran := 0
			allocs := testing.AllocsPerRun(100, func() {
				k.schedule(k.now+tc.delay, fn)
				if k.pick() == nil {
					ran++
				}
			})
			if ran != 101 {
				t.Fatalf("pick drained %d of 101 events", ran)
			}
			if allocs != 0 {
				t.Errorf("Kernel.schedule allocates %.2f objects per call; want 0", allocs)
			}
		})
	}
}

func TestSleepAllocs(t *testing.T) {
	k := NewKernel()
	warmQueue(k, 256)
	var allocs float64
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(time.Microsecond) // first pass through the path
		allocs = testing.AllocsPerRun(100, func() {
			p.Sleep(time.Microsecond)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("Proc.Sleep allocates %.2f objects per call; want 0", allocs)
	}
}

func TestChanSendRecvAllocs(t *testing.T) {
	k := NewKernel()
	warmQueue(k, 256)
	c := NewChan[int](k, 0)
	k.SpawnDaemon("rx", func(p *Proc) {
		for {
			c.Recv(p)
		}
	})
	var allocs float64
	k.Spawn("tx", func(p *Proc) {
		for i := 0; i < 8; i++ { // fill the waiter free lists
			c.Send(p, i)
		}
		allocs = testing.AllocsPerRun(100, func() {
			c.Send(p, 1)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("rendezvous Chan.Send/Recv allocates %.2f objects per round trip; want 0", allocs)
	}
}

// machineFunc adapts a function to Machine: each Advance calls it.
type machineFunc func() Wait

func (f machineFunc) Advance() Wait { return f() }

// acquireOne is a machine that acquires one unit of r and then ends,
// adding the grant to granted.
type acquireOne struct {
	r            *Resource
	asked        bool
	got, granted int
}

func (a *acquireOne) Advance() Wait {
	if a.asked = !a.asked; a.asked {
		return AcquireUpTo(a.r, 1, &a.got)
	}
	a.granted += a.got
	return Wait{}
}

// TestResourceFuncAllocs pins a contended acquire of a machine run as
// kernel callbacks (Kernel.Start): the request queues its task behind the
// holder, Release files the task's next step, and the step runs the
// machine on with the unit. The queue's backing array and the task's bound
// step are reused, so a cycle allocates nothing.
func TestResourceFuncAllocs(t *testing.T) {
	k := NewKernel()
	warmQueue(k, 256)
	r := NewResource(k, 1)
	m := &acquireOne{r: r}
	var task Task
	then := func() {}
	k.Start(&task, m, then) // the holder: granted at once
	cycle := func() {
		k.Start(&task, m, then) // queued: the unit is held
		r.Release(1)            // admits it, filing its next step now
		k.pick()                // runs the step, which now holds the unit
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	allocs := testing.AllocsPerRun(100, cycle)
	if m.granted != 1+8+101 || r.inUse != 1 {
		t.Fatalf("granted %d units, %d in use; want %d and 1", m.granted, r.inUse, 1+8+101)
	}
	if allocs != 0 {
		t.Errorf("a contended Kernel.Start acquire/Release cycle allocates %.2f objects; want 0", allocs)
	}
}

// TestGuardedActivationAllocs pins a machine driven on a process
// (Proc.Drive) that takes every kind of wait: a sleep returned at the call,
// a sleep returned at that activation, a wait on an event that a callback
// fires, and a contended acquire of a unit that a task holds and a
// callback releases; at the grant the machine releases the unit and ends,
// and the process resumes. Waiter lists, queues and the task's step are
// reused, so a call allocates nothing.
func TestGuardedActivationAllocs(t *testing.T) {
	k := NewKernel()
	warmQueue(k, 256)
	r := NewResource(k, 1)
	e := NewEvent(k)
	hold := &acquireOne{r: r}
	var holder Task
	nop := func() {}
	fire, release := e.Fire, func() { r.Release(1) }
	phase, got, calls := 0, 0, 0
	m := machineFunc(func() Wait {
		phase++
		switch phase {
		case 1, 2:
			return Sleep(time.Microsecond)
		case 3:
			e.Reset()
			k.After(time.Microsecond, fire)
			return Await(e)
		case 4:
			k.Start(&holder, hold, nop) // granted at once
			k.After(time.Microsecond, release)
			if r.inUse != 1 {
				panic("the holder did not take the unit at once")
			}
			return AcquireUpTo(r, 1, &got)
		default:
			r.Release(got)
			phase = 0
			calls++
			return Wait{}
		}
	})
	var allocs float64
	k.Spawn("guarded", func(p *Proc) {
		for i := 0; i < 8; i++ {
			p.Drive(m)
		}
		allocs = testing.AllocsPerRun(100, func() { p.Drive(m) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Close()
	if calls != 8+101 || got != 1 || r.inUse != 0 {
		t.Fatalf("%d driven calls returned, last grant %d, %d units in use; want %d, 1 and 0", calls, got, r.inUse, 8+101)
	}
	if allocs != 0 {
		t.Errorf("a driven machine allocates %.2f objects; want 0", allocs)
	}
}

func TestEventFireAllocs(t *testing.T) {
	k := NewKernel()
	warmQueue(k, 1024)
	const n = 101 // AllocsPerRun(100, f) invokes f 101 times
	events := make([]*Event, n)
	for i := range events {
		events[i] = NewEvent(k)
		ev := events[i]
		k.SpawnDaemon("waiter", func(p *Proc) { ev.Wait(p) })
	}
	var allocs float64
	k.Spawn("firer", func(p *Proc) {
		// All waiter daemons spawned before us have already parked in Wait.
		i := 0
		allocs = testing.AllocsPerRun(100, func() {
			events[i].Fire()
			i++
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("Event.Fire with one waiter allocates %.2f objects per call; want 0", allocs)
	}
}

// TestShardedInjectAllocs pins the cross-shard message path: two shards
// bounce a message back and forth, each hop injected by the receiver that
// took the previous one. Once the outboxes, the merge buffer and the
// delivery free lists are warm, a run of hops allocates nothing: the
// payload travels by value and the delivery event is recycled.
func TestShardedInjectAllocs(t *testing.T) {
	const hop = time.Microsecond
	const hops = 64
	s := NewSharded(2, hop)
	defer s.Close()
	var left int
	var last uint64
	var bounce [2]Receiver
	for i := range bounce {
		i := i
		bounce[i] = receiverFunc(func(a, _ uint64) {
			last = a
			if left--; left > 0 {
				s.Inject(i, 1-i, s.Kernel(i).Now()+hop, bounce[1-i], a+1, 0)
			}
		})
	}
	run := func() {
		left = hops
		s.Inject(0, 1, s.Now()+hop, bounce[1], 0, 0)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if last != hops-1 {
			t.Fatalf("ring delivered %d of %d hops", last+1, hops)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("a %d-hop cross-shard ring allocates %.2f objects; want 0", hops, allocs)
	}
}
