package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestRendezvousSenderBlocksUntilReceiver(t *testing.T) {
	k := NewKernel()
	ch := NewChan[string](k, 0)
	var sentAt, recvAt Time
	k.Spawn("sender", func(p *Proc) {
		ch.Send(p, "hi")
		sentAt = p.Now()
	})
	k.Spawn("receiver", func(p *Proc) {
		p.Sleep(25 * us)
		if got := ch.Recv(p); got != "hi" {
			t.Errorf("recv = %q", got)
		}
		recvAt = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sentAt != 25*us || recvAt != 25*us {
		t.Fatalf("sentAt=%v recvAt=%v, want both 25µs", sentAt, recvAt)
	}
}

func TestRendezvousReceiverBlocksUntilSender(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 0)
	var recvAt Time
	k.Spawn("receiver", func(p *Proc) {
		ch.Recv(p)
		recvAt = p.Now()
	})
	k.Spawn("sender", func(p *Proc) {
		p.Sleep(40 * us)
		ch.Send(p, 1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recvAt != 40*us {
		t.Fatalf("recvAt = %v, want 40µs", recvAt)
	}
}

func TestBufferedSendDoesNotBlockUntilFull(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 2)
	var thirdSentAt Time
	k.Spawn("sender", func(p *Proc) {
		ch.Send(p, 1)
		ch.Send(p, 2)
		if p.Now() != 0 {
			t.Errorf("buffered sends blocked, now=%v", p.Now())
		}
		ch.Send(p, 3) // blocks until a recv frees a slot
		thirdSentAt = p.Now()
	})
	k.Spawn("receiver", func(p *Proc) {
		p.Sleep(15 * us)
		for i := 1; i <= 3; i++ {
			if got := ch.Recv(p); got != i {
				t.Errorf("recv = %d, want %d (FIFO)", got, i)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if thirdSentAt != 15*us {
		t.Fatalf("third send completed at %v, want 15µs", thirdSentAt)
	}
}

func TestTrySendTryRecv(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 1)
	k.Spawn("p", func(p *Proc) {
		if _, ok := ch.TryRecv(); ok {
			t.Error("TryRecv on empty chan succeeded")
		}
		if !ch.TrySend(7) {
			t.Error("TrySend with free buffer failed")
		}
		if ch.TrySend(8) {
			t.Error("TrySend on full buffer succeeded")
		}
		if ch.Len() != 1 {
			t.Errorf("Len = %d", ch.Len())
		}
		v, ok := ch.TryRecv()
		if !ok || v != 7 {
			t.Errorf("TryRecv = %d,%v", v, ok)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChanFIFOAmongBlockedSenders(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 0)
	for i := 0; i < 4; i++ {
		i := i
		k.Spawn("sender", func(p *Proc) {
			p.Sleep(time.Duration(i) * us)
			ch.Send(p, i)
		})
	}
	k.Spawn("receiver", func(p *Proc) {
		p.Sleep(100 * us)
		for i := 0; i < 4; i++ {
			if got := ch.Recv(p); got != i {
				t.Errorf("recv %d = %d, want FIFO", i, got)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: every value sent is received exactly once, in order, for any
// buffer capacity and message count.
func TestChanDeliveryProperty(t *testing.T) {
	f := func(capRaw uint8, nRaw uint8) bool {
		capacity := int(capRaw % 8)
		n := int(nRaw%32) + 1
		k := NewKernel()
		ch := NewChan[int](k, capacity)
		var got []int
		k.Spawn("sender", func(p *Proc) {
			for i := 0; i < n; i++ {
				ch.Send(p, i)
			}
		})
		k.Spawn("receiver", func(p *Proc) {
			for i := 0; i < n; i++ {
				got = append(got, ch.Recv(p))
				p.Sleep(us)
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestResourceSerializesWhenFull(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		k.Spawn("user", func(p *Proc) {
			n := acquireUpTo(p, r, 1)
			p.Sleep(10 * us)
			r.Release(n)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10 * us, 20 * us, 30 * us}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourceParallelWithinCapacity(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, 4)
	var ends []Time
	for i := 0; i < 4; i++ {
		k.Spawn("user", func(p *Proc) {
			n := acquireUpTo(p, r, 1)
			p.Sleep(10 * us)
			r.Release(n)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, e := range ends {
		if e != 10*us {
			t.Fatalf("ends = %v, want all 10µs", ends)
		}
	}
}

// Grants go in arrival order: a small request that arrives after a large
// one waits until the large one has had its grant and released it.
func TestResourceFIFOPreventsStarvation(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, 2)
	var order []string
	k.Spawn("hog", func(p *Proc) {
		n := acquireUpTo(p, r, 2)
		p.Sleep(10 * us)
		r.Release(n)
		order = append(order, "hog")
	})
	k.Spawn("big", func(p *Proc) {
		p.Sleep(us)
		n := acquireUpTo(p, r, 2) // queued behind hog's hold
		if n != 2 {
			t.Errorf("big grant = %d, want 2", n)
		}
		p.Sleep(10 * us)
		r.Release(n)
		order = append(order, "big")
	})
	k.Spawn("small", func(p *Proc) {
		p.Sleep(2 * us)
		n := acquireUpTo(p, r, 1) // must wait for big, queued first
		if p.Now() != 20*us {
			t.Errorf("small granted at %v, want 20µs", p.Now())
		}
		p.Sleep(10 * us)
		r.Release(n)
		order = append(order, "small")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "hog" || order[1] != "big" || order[2] != "small" {
		t.Fatalf("order = %v", order)
	}
}

func TestResourceOversizedRequestClamps(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, 2)
	k.Spawn("p", func(p *Proc) {
		n := acquireUpTo(p, r, 10) // clamps to capacity rather than deadlocking
		if n != 2 || r.inUse != 2 {
			t.Errorf("grant = %d, in use = %d; want 2 and 2", n, r.inUse)
		}
		r.Release(n)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
