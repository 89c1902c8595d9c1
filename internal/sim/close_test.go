package sim

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// settleGoroutines waits briefly for exiting goroutines to finish and
// returns the live count. Close retires a process's goroutine before it
// returns, but goroutines that merely signal their end before exiting —
// a sharded window's shard runners, a test's own helpers — may lag by a
// few scheduler ticks.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > want; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

func TestCloseUnwindsParkedProcesses(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	ch := NewChan[int](k, 0)
	ev := NewEvent(k)
	var unwound []string
	k.SpawnDaemon("server", func(p *Proc) {
		defer func() { unwound = append(unwound, "server") }()
		for {
			ch.Recv(p)
		}
	})
	k.Spawn("client", func(p *Proc) { ch.Send(p, 1) })
	k.Spawn("stuck", func(p *Proc) {
		defer func() { unwound = append(unwound, "stuck") }()
		ev.Wait(p)
	})
	k.Spawn("guarded", func(p *Proc) {
		defer func() { unwound = append(unwound, "guarded") }()
		waited := false
		p.Drive(machineFunc(func() Wait {
			if waited {
				return Wait{}
			}
			waited = true
			return Await(ev)
		}))
	})
	if _, ok := k.Run().(*DeadlockError); !ok {
		t.Fatal("stuck process not reported")
	}
	// Spawned after Run and never activated: it holds no goroutine.
	k.Spawn("late", func(p *Proc) { t.Error("late process ran") })
	if n := settleGoroutines(base + 3); n != base+3 {
		t.Fatalf("%d goroutines before Close, want %d: one per started, parked process", n, base+3)
	}
	k.Close()
	if want := []string{"server", "stuck", "guarded"}; !reflect.DeepEqual(unwound, want) {
		t.Fatalf("unwound = %v, want %v in pid order", unwound, want)
	}
	if len(k.procs) != 0 || k.alive != 0 || len(k.queue) != 0 || k.fifo.n != 0 {
		t.Fatalf("kernel not empty after Close: %d procs, %d alive, %d future and %d same-instant events",
			len(k.procs), k.alive, len(k.queue), k.fifo.n)
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("%d goroutines left after Close, want %d", n, base)
	}
	k.Close() // idempotent
}

// A deferred call that blocks while its process unwinds is unwound in
// turn, and a process it spawns is torn down as well.
func TestCloseUnwindsBlockingDeferredCalls(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	ev := NewEvent(k)
	reached, spawned := false, false
	k.SpawnDaemon("svc", func(p *Proc) {
		defer func() { reached = true }()
		defer p.Sleep(time.Microsecond)
		defer k.Spawn("child", func(p *Proc) { spawned = true })
		ev.Wait(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Close()
	if !reached {
		t.Fatal("outer deferred call skipped")
	}
	if spawned {
		t.Fatal("process spawned during teardown ran")
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("%d goroutines left after Close, want %d", n, base)
	}
}

// TestShardedCloseUnwindsEveryShard also ends the engine's Run with
// messages in flight: shard 0 injects once (scheduled at the next
// barrier), then injects again and panics in the same window, so the
// second wave is still in its outbox when Run ends. Each shard's daemon injects from a
// deferred call while it unwinds. Close must drop every one of them
// without running a receiver, release the outboxes and free lists, and
// leave no goroutine.
func TestShardedCloseUnwindsEveryShard(t *testing.T) {
	base := runtime.NumGoroutine()
	s := NewSharded(3, time.Microsecond)
	var delivered atomic.Int32
	recv := receiverFunc(func(uint64, uint64) { delivered.Add(1) })
	for i := 0; i < s.Shards(); i++ {
		k := s.Kernel(i)
		ev := NewEvent(k)
		k.SpawnDaemon("svc", func(p *Proc) {
			defer s.Inject(i, (i+1)%s.Shards(), p.Now()+time.Microsecond, recv, 0, 0)
			ev.Wait(p)
		})
		k.Spawn("work", func(p *Proc) { p.Sleep(time.Microsecond) })
	}
	k0 := s.Kernel(0)
	k0.Spawn("injector", func(p *Proc) {
		for to := 1; to < s.Shards(); to++ {
			s.Inject(0, to, p.Now()+10*time.Microsecond, recv, 0, 0)
		}
		p.Sleep(2 * time.Microsecond)
		for to := 1; to < s.Shards(); to++ {
			s.Inject(0, to, p.Now()+10*time.Microsecond, recv, 0, 0)
		}
		panic("end of run")
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Run returned without the injector's panic")
			}
		}()
		s.Run()
	}()
	for i := 1; i < s.Shards(); i++ {
		if k := s.Kernel(i); len(k.queue) != 1 {
			t.Fatalf("shard %d holds %d scheduled deliveries after Run, want the first wave's 1", i, len(k.queue))
		}
	}
	n := 0
	for _, o := range s.lanes[0].out {
		n += len(o)
	}
	if n != s.Shards()-1 {
		t.Fatalf("shard 0's outbox holds %d injections after Run, want the second wave's %d", n, s.Shards()-1)
	}
	s.Close()
	if n := delivered.Load(); n != 0 {
		t.Fatalf("%d receivers ran after Run", n)
	}
	for i := 0; i < s.Shards(); i++ {
		if k := s.Kernel(i); len(k.procs) != 0 || len(k.queue) != 0 || k.fifo.n != 0 {
			t.Fatalf("shard %d keeps %d procs and %d events", i, len(k.procs), len(k.queue)+k.fifo.n)
		}
		if s.lanes[i].out != nil || s.lanes[i].free != nil {
			t.Fatalf("shard %d keeps its outboxes or delivery free list", i)
		}
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("%d goroutines left after Close, want %d", n, base)
	}
}
