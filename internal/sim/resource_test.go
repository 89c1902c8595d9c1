package sim

import (
	"testing"
	"time"
)

// acquireUpTo drives a one-wait machine on p that acquires between 1 and
// max units of r, and returns the grant: the blocking acquire, built from
// an AcquireUpTo wait as every caller builds it.
func acquireUpTo(p *Proc, r *Resource, max int) int {
	var got int
	asked := false
	p.Drive(machineFunc(func() Wait {
		if asked {
			return Wait{}
		}
		asked = true
		return AcquireUpTo(r, max, &got)
	}))
	return got
}

func TestAcquireUpToTakesAllFree(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, 12)
	k.Spawn("p", func(p *Proc) {
		if got := acquireUpTo(p, r, 16); got != 12 {
			t.Errorf("grant = %d, want 12 (clamped to capacity)", got)
		}
		r.Release(12)
		if got := acquireUpTo(p, r, 4); got != 4 {
			t.Errorf("grant = %d, want 4", got)
		}
		r.Release(4)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireUpToTakesPartial(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, 16)
	k.Spawn("first", func(p *Proc) {
		n := acquireUpTo(p, r, 12)
		if n != 12 {
			t.Errorf("first grant = %d", n)
		}
		p.Sleep(10 * time.Microsecond)
		r.Release(n)
	})
	k.Spawn("second", func(p *Proc) {
		p.Sleep(time.Microsecond)
		n := acquireUpTo(p, r, 12)
		if n != 4 {
			t.Errorf("second grant = %d, want leftover 4", n)
		}
		r.Release(n)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAcquireUpToBlocksWhenEmptyThenGrants(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, 8)
	k.Spawn("hog", func(p *Proc) {
		if got := acquireUpTo(p, r, 8); got != 8 {
			t.Errorf("hog grant = %d, want 8", got)
		}
		p.Sleep(20 * time.Microsecond)
		r.Release(8)
	})
	var grantedAt Time
	var granted int
	k.Spawn("adaptive", func(p *Proc) {
		p.Sleep(time.Microsecond)
		granted = acquireUpTo(p, r, 6)
		grantedAt = p.Now()
		r.Release(granted)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if grantedAt != 20*time.Microsecond {
		t.Fatalf("granted at %v, want 20µs", grantedAt)
	}
	if granted != 6 {
		t.Fatalf("granted = %d, want 6", granted)
	}
}

// Two opposing multi-channel users of a shared pool converge to roughly half
// each — the duplex-bandwidth-sharing behaviour the fabric relies on.
func TestAcquireUpToFairSharing(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, 16)
	totals := make([]int, 2)
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("dir", func(p *Proc) {
			for chunk := 0; chunk < 50; chunk++ {
				n := acquireUpTo(p, r, 12)
				totals[i] += n
				p.Sleep(time.Microsecond)
				r.Release(n)
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	sum := totals[0] + totals[1]
	// Combined throughput should exceed a single direction's 12-channel cap.
	if sum < 50*14 {
		t.Fatalf("aggregate grants %d, want >= %d", sum, 50*14)
	}
	for i, tot := range totals {
		if tot < 50*4 {
			t.Fatalf("direction %d starved: %d", i, tot)
		}
	}
}

// Releasing more units than are held is a caller's bug (a double release),
// not something to clamp away.
func TestResourceOverReleasePanics(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, 4)
	k.Spawn("p", func(p *Proc) {
		n := acquireUpTo(p, r, 2)
		r.Release(n)
		defer func() {
			if recover() == nil {
				t.Error("a second Release of the same units did not panic")
			}
		}()
		r.Release(n)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
