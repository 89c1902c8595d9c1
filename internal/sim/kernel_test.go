package sim

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

const us = time.Microsecond

func TestClockStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	k := NewKernel()
	var at Time
	k.Spawn("p", func(p *Proc) {
		p.Sleep(10 * us)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 10*us {
		t.Fatalf("woke at %v, want 10µs", at)
	}
	if k.Now() != 10*us {
		t.Fatalf("kernel now %v, want 10µs", k.Now())
	}
}

func TestNegativeSleepClampsToNow(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		p.Sleep(5 * us)
		p.Sleep(-3 * us)
		if p.Now() != 5*us {
			t.Errorf("negative sleep moved clock to %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventOrderingByTime(t *testing.T) {
	k := NewKernel()
	var order []int
	k.After(30*us, func() { order = append(order, 3) })
	k.After(10*us, func() { order = append(order, 1) })
	k.After(20*us, func() { order = append(order, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[1 2 3]" {
		t.Fatalf("order = %v", order)
	}
}

func TestTieBreakByScheduleOrder(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		k.After(5*us, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := NewKernel()
	var childAt Time
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(7 * us)
		child := k.Spawn("child", func(c *Proc) {
			c.Sleep(3 * us)
			childAt = c.Now()
		})
		p.Join(child)
		if p.Now() != 10*us {
			t.Errorf("parent resumed at %v, want 10µs", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childAt != 10*us {
		t.Fatalf("child finished at %v, want 10µs", childAt)
	}
}

func TestJoinFinishedProcReturnsImmediately(t *testing.T) {
	k := NewKernel()
	done := k.Spawn("fast", func(p *Proc) {})
	k.Spawn("joiner", func(p *Proc) {
		p.Sleep(50 * us)
		p.Join(done)
		if p.Now() != 50*us {
			t.Errorf("join of finished proc advanced clock to %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	k.Spawn("stuck", func(p *Proc) { ev.Wait(p) })
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked = %v, want 1 entry", de.Blocked)
	}
}

func TestEventBroadcastWakesAllAtSameInstant(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	wake := make([]Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			ev.Wait(p)
			wake[i] = p.Now()
		})
	}
	k.Spawn("firer", func(p *Proc) {
		p.Sleep(42 * us)
		ev.Fire()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, w := range wake {
		if w != 42*us {
			t.Fatalf("waiter %d woke at %v", i, w)
		}
	}
}

func TestWaitOnFiredEventReturnsImmediately(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	ev.Fire()
	if !ev.Fired() {
		t.Fatal("Fired() = false after Fire")
	}
	k.Spawn("p", func(p *Proc) {
		ev.Wait(p)
		if p.Now() != 0 {
			t.Errorf("wait on fired event advanced clock")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFireIsNoop(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	ev.Fire()
	ev.Fire()
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	k := NewKernel()
	c := NewCounter(k, 3)
	for i := 0; i < 3; i++ {
		d := time.Duration(i+1) * 10 * us
		k.Spawn("worker", func(p *Proc) {
			p.Sleep(d)
			c.Done()
		})
	}
	var at Time
	k.Spawn("waiter", func(p *Proc) {
		c.Wait(p)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 30*us {
		t.Fatalf("counter released at %v, want 30µs", at)
	}
}

func TestCounterZeroIsImmediatelyDone(t *testing.T) {
	k := NewKernel()
	c := NewCounter(k, 0)
	k.Spawn("p", func(p *Proc) {
		c.Wait(p)
		if p.Now() != 0 {
			t.Errorf("zero counter blocked")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierReleasesTogetherAndIsReusable(t *testing.T) {
	k := NewKernel()
	const parties = 4
	b := NewBarrier(k, parties)
	rounds := make([][]Time, 2)
	rounds[0] = make([]Time, parties)
	rounds[1] = make([]Time, parties)
	for i := 0; i < parties; i++ {
		i := i
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Sleep(time.Duration(i+1) * 10 * us)
			b.Wait(p)
			rounds[0][i] = p.Now()
			p.Sleep(time.Duration(parties-i) * 5 * us)
			b.Wait(p)
			rounds[1][i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < parties; i++ {
		if rounds[0][i] != 40*us {
			t.Fatalf("round 0 party %d released at %v, want 40µs", i, rounds[0][i])
		}
		if rounds[1][i] != 60*us {
			t.Fatalf("round 1 party %d released at %v, want 60µs", i, rounds[1][i])
		}
	}
}

func TestBarrierSingleParty(t *testing.T) {
	k := NewKernel()
	b := NewBarrier(k, 1)
	k.Spawn("p", func(p *Proc) {
		b.Wait(p) // must not block
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		var trace []string
		k := NewKernel()
		ch := NewChan[int](k, 2)
		for i := 0; i < 5; i++ {
			i := i
			k.Spawn(fmt.Sprintf("send%d", i), func(p *Proc) {
				p.Sleep(time.Duration(i) * us)
				ch.Send(p, i)
				trace = append(trace, fmt.Sprintf("s%d@%v", i, p.Now()))
			})
		}
		k.Spawn("recv", func(p *Proc) {
			for j := 0; j < 5; j++ {
				v := ch.Recv(p)
				trace = append(trace, fmt.Sprintf("r%d@%v", v, p.Now()))
				p.Sleep(3 * us)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("non-deterministic traces:\n%v\n%v", a, b)
	}
}

// Property: for any set of sleep durations, processes complete in sorted
// order of their durations and the kernel clock ends at the maximum.
func TestSleepOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		k := NewKernel()
		var finished []time.Duration
		var max time.Duration
		for _, r := range raw {
			d := time.Duration(r) * us
			if d > max {
				max = d
			}
			k.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				finished = append(finished, d)
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		if k.Now() != max {
			return false
		}
		for i := 1; i < len(finished); i++ {
			if finished[i] < finished[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Kernel.Start runs sleep and acquire waits only: a machine that waits on
// an event must run on a process, which a deadlock report can name.
func TestStartRejectsEventWaits(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	ev := NewEvent(k)
	defer func() {
		if recover() == nil {
			t.Error("Kernel.Start ran a machine's event wait")
		}
	}()
	k.Start(new(Task), machineFunc(func() Wait { return Await(ev) }), func() {})
}
