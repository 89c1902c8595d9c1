package sim

import (
	"errors"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"
)

// receiverFunc adapts a function to Receiver. Tests build one per
// mailbox or link up front, as a model would.
type receiverFunc func(a, b uint64)

func (f receiverFunc) Deliver(a, b uint64) { f(a, b) }

// ringWorld builds the same token-ring model partitioned over a varying
// number of shards: nodes pass an accumulating token around a ring, each hop
// priced hopDelay (>= the engine lookahead), with per-node local busy-work
// sleeps to skew shard clocks. Virtual completion time and the accumulated
// sum must be identical for every shard count.
func ringWorld(t *testing.T, nodes, shards int, hop Time) (sum uint64, virt Time) {
	t.Helper()
	s := NewSharded(shards, hop)
	defer s.Close()
	mail := make([]*Chan[uint64], nodes)
	recv := make([]Receiver, nodes)
	shardOf := func(node int) int { return node * shards / nodes }
	for n := 0; n < nodes; n++ {
		c := NewChan[uint64](s.Kernel(shardOf(n)), 4)
		mail[n] = c
		recv[n] = receiverFunc(func(v, _ uint64) {
			if !c.TrySend(v) {
				panic("mailbox full")
			}
		})
	}
	var got uint64
	var last Time
	for n := 0; n < nodes; n++ {
		n := n
		k := s.Kernel(shardOf(n))
		next := (n + 1) % nodes
		send := func(p *Proc, v uint64) {
			s.Inject(shardOf(n), shardOf(next), p.Now()+hop, recv[next], v, 0)
		}
		k.Spawn("node", func(p *Proc) {
			// Skewed local work before joining the ring.
			p.Sleep(Time(n%3) * 100 * time.Nanosecond)
			if n == 0 {
				// Two full laps.
				v := uint64(1)
				send(p, v)
				for lap := 0; lap < 2; lap++ {
					v = mail[n].Recv(p)
					if lap == 0 {
						send(p, v+1)
					}
				}
				got, last = v, p.Now()
				return
			}
			for lap := 0; lap < 2; lap++ {
				v := mail[n].Recv(p)
				p.Sleep(50 * time.Nanosecond) // per-hop processing
				send(p, v+1)
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Errorf("shards=%d: %v", shards, err) // Errorf: TestShardedBarrierYields runs it off the test goroutine
	}
	return got, last
}

func TestShardedRingDeterministic(t *testing.T) {
	const nodes = 8
	const hop = 2500 * time.Nanosecond
	baseSum, baseVirt := ringWorld(t, nodes, 1, hop)
	if baseSum != uint64(2*nodes) {
		t.Fatalf("serial sum = %d, want %d", baseSum, 2*nodes)
	}
	for _, shards := range []int{2, 4, 8} {
		sum, virt := ringWorld(t, nodes, shards, hop)
		if sum != baseSum || virt != baseVirt {
			t.Errorf("shards=%d: (sum,virt) = (%d,%v), serial = (%d,%v)",
				shards, sum, virt, baseSum, baseVirt)
		}
	}
}

// TestShardedBarrierYields runs the 4-shard ring on one OS thread, ten
// times. A shard that waits at a window barrier must hand the thread to
// the shards it waits for. One that only spins gets the thread back from
// the runtime's preemption after milliseconds per barrier, which takes
// these runs well past the watchdog; yielding, they take milliseconds.
func TestShardedBarrierYields(t *testing.T) {
	const nodes, runs = 8, 10
	const hop = 2500 * time.Nanosecond
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	baseSum, baseVirt := ringWorld(t, nodes, 1, hop)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range runs {
			if sum, virt := ringWorld(t, nodes, 4, hop); sum != baseSum || virt != baseVirt {
				t.Errorf("GOMAXPROCS 1, shards=4: (sum,virt) = (%d,%v), serial = (%d,%v)",
					sum, virt, baseSum, baseVirt)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%d runs of the 4-shard ring at GOMAXPROCS 1 took over 10 s: a barrier spins without yielding", runs)
	}
}

// TestShardedWorkersExitInClose checks that an engine's resident workers
// are gone after Close, whether it ran to completion, ended in a
// deadlock, or never ran at all.
func TestShardedWorkersExitInClose(t *testing.T) {
	cases := []struct {
		name  string
		build func(s *Sharded)
		run   bool
		want  error
	}{
		{"completed", func(s *Sharded) {
			for i := 0; i < s.Shards(); i++ {
				s.Kernel(i).Spawn("work", func(p *Proc) { p.Sleep(3 * time.Microsecond) })
			}
		}, true, nil},
		{"deadlock", func(s *Sharded) {
			ev := NewEvent(s.Kernel(2))
			s.Kernel(2).Spawn("waiter", func(p *Proc) { ev.Wait(p) })
			s.Kernel(0).Spawn("work", func(p *Proc) { p.Sleep(5 * time.Microsecond) })
		}, true, &DeadlockError{}},
		{"never-ran", func(s *Sharded) {
			s.Kernel(1).Spawn("work", func(p *Proc) { p.Sleep(time.Microsecond) })
		}, false, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			s := NewSharded(3, time.Microsecond)
			c.build(s)
			if c.run {
				err := s.Run()
				if (err == nil) != (c.want == nil) || err != nil && reflect.TypeOf(err) != reflect.TypeOf(c.want) {
					t.Fatalf("Run = %v, want %T", err, c.want)
				}
				if c.want != nil {
					// A second Run finds the workers parked, not lost.
					if err := s.Run(); err == nil || reflect.TypeOf(err) != reflect.TypeOf(c.want) {
						t.Fatalf("second Run = %v, want %T", err, c.want)
					}
				}
			}
			s.Close()
			if n := settleGoroutines(base); n != base {
				t.Fatalf("%d goroutines after Close, want %d as before NewSharded", n, base)
			}
		})
	}
}

// A process that calls runtime.Goexit (what t.FailNow does) ends the
// goroutine running its shard. On shard 0 that is the Run goroutine, which
// must park the workers on its way out. On a worker's shard it ends the
// worker: Run re-raises it as a panic rather than waiting for the worker
// forever, and a later Run refuses to start. Either way Close leaves no
// goroutine behind.
func TestShardedGoexit(t *testing.T) {
	for _, c := range []struct {
		shard int
		want  string
	}{{0, "goexit"}, {1, "panic"}} {
		base := runtime.NumGoroutine()
		s := NewSharded(2, time.Microsecond)
		s.Kernel(1-c.shard).Spawn("work", func(p *Proc) { p.Sleep(2 * time.Microsecond) })
		s.Kernel(c.shard).Spawn("quitter", func(p *Proc) {
			p.Sleep(time.Microsecond)
			runtime.Goexit()
		})
		ended := make(chan string)
		go func() {
			how := "goexit"
			defer func() {
				if recover() != nil {
					how = "panic"
				}
				ended <- how
			}()
			s.Run()
			how = "returned"
		}()
		if how := <-ended; how != c.want {
			t.Fatalf("Goexit on shard %d: Run ended by %s, want %s", c.shard, how, c.want)
		}
		if err := s.Run(); c.shard != 0 && err == nil {
			t.Fatal("Run started again after losing a worker")
		}
		s.Close()
		if n := settleGoroutines(base); n != base {
			t.Fatalf("Goexit on shard %d: %d goroutines after Close, want %d", c.shard, n, base)
		}
	}
}

func TestShardedBarrierAdvanceFallback(t *testing.T) {
	// Zero lookahead: the engine must fall back to one-tick windows and
	// still produce the serial result.
	const nodes = 4
	baseSum, baseVirt := ringWorld(t, nodes, 1, 0)
	sum, virt := ringWorld(t, nodes, 4, 0)
	if sum != baseSum || virt != baseVirt {
		t.Fatalf("barrier-advance: (sum,virt) = (%d,%v), serial = (%d,%v)",
			sum, virt, baseSum, baseVirt)
	}
}

// TestShardedDeliveryOrder pins how injections reach one destination
// through recycled delivery slots. Nodes 0-2 send to node 3, nodes spread
// over 1, 2 or 4 shards. Node 0's first wave is issued with timestamps
// going backwards (4L, 3L, 2L), as a healed partition's held chunks are;
// all three senders hit 2L and 4L, so same-timestamp messages from several
// shards meet at one destination; and the second wave is issued while the
// first is still in flight, so its slots come back from the 2L deliveries
// while the 3L and 4L ones still wait. Each payload must arrive exactly
// once, at its own timestamp, in (at, sender, issue order), at every shard
// count. A FIFO per link would deliver the backwards wave in issue order,
// and a slot reused before its event ran would lose a payload.
func TestShardedDeliveryOrder(t *testing.T) {
	const L = time.Microsecond
	type send struct{ issue, at Time }
	script := [][]send{
		{{0, 4 * L}, {0, 3 * L}, {0, 2 * L}, {L + 1, 5 * L}, {L + 1, 2*L + 5}},
		{{1, 2 * L}, {1, 2 * L}, {1, 3 * L}},
		{{2, 2 * L}, {2, 4 * L}, {L + 2, 4 * L}},
	}
	type arrival struct {
		at Time
		id uint64
	}
	var want []arrival
	for n, sends := range script {
		for i, x := range sends {
			want = append(want, arrival{x.at, uint64(n*100 + i)})
		}
	}
	// Stable: equal timestamps keep (sender, issue order).
	sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })

	for _, shards := range []int{1, 2, 4} {
		s := NewSharded(shards, L)
		shardOf := func(node int) int { return node * shards / 4 }
		dst := shardOf(3)
		k := s.Kernel(dst)
		var got []arrival
		recv := receiverFunc(func(id, at uint64) {
			if k.Now() != Time(at) {
				t.Errorf("shards=%d: payload %d due at %v arrived at %v", shards, id, Time(at), k.Now())
			}
			got = append(got, arrival{k.Now(), id})
		})
		for n, sends := range script {
			n, sends := n, sends
			s.Kernel(shardOf(n)).Spawn("sender", func(p *Proc) {
				for i, x := range sends {
					p.Sleep(x.issue - p.Now())
					s.Inject(shardOf(n), dst, x.at, recv, uint64(n*100+i), uint64(x.at))
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		s.Close()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: arrivals\n got %v\nwant %v", shards, got, want)
		}
	}
}

func TestShardedInjectLookaheadViolationPanics(t *testing.T) {
	s := NewSharded(2, time.Microsecond)
	defer s.Close()
	s.Kernel(0).Spawn("bad", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Inject below lookahead did not panic")
			}
		}()
		s.Inject(0, 1, p.Now()+time.Nanosecond, receiverFunc(func(uint64, uint64) {}), 0, 0)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestShardedCrossShardDeadlock(t *testing.T) {
	s := NewSharded(2, time.Microsecond)
	defer s.Close()
	ev := NewEvent(s.Kernel(1))
	s.Kernel(1).Spawn("waiter", func(p *Proc) {
		ev.Wait(p) // nobody ever fires this
	})
	s.Kernel(0).Spawn("worker", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
	})
	err := s.Run()
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "waiter(event)" {
		t.Fatalf("blocked = %v", dl.Blocked)
	}
}

func TestShardedRunFor(t *testing.T) {
	// A bounded ticker on one shard must run the window loop exactly as
	// far as the serial kernel runs it: every tick, ending at the same time.
	const want = 10
	ticker := func(k *Kernel, ticks *int) {
		k.Spawn("ticker", func(p *Proc) {
			for range want {
				p.Sleep(time.Millisecond)
				*ticks++
			}
		})
	}
	var serial, sharded int
	k := NewKernel()
	defer k.Close()
	ticker(k, &serial)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	s := NewSharded(2, time.Microsecond)
	defer s.Close()
	ticker(s.Kernel(0), &sharded)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if serial != want || sharded != want || k.Now() != s.Now() {
		t.Fatalf("ticks: serial %d at %v, sharded %d at %v, want %d", serial, k.Now(), sharded, s.Now(), want)
	}
}
