package fabric

import (
	"testing"
	"time"

	"mpixccl/internal/device"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

func setup(nodes int) (*sim.Kernel, *topology.System, *Fabric) {
	k := sim.NewKernel()
	sys := topology.ThetaGPU(k, nodes)
	return k, sys, New(k, sys)
}

func TestTransferMovesBytesIntraNode(t *testing.T) {
	k, sys, f := setup(1)
	src := sys.Device(0).MustMalloc(4096)
	dst := sys.Device(1).MustMalloc(4096)
	src.FillBytes(0x5A)
	k.Spawn("main", func(p *sim.Proc) {
		f.Transfer(p, dst, src, 4096, Opts{Channels: 12})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(src) {
		t.Fatal("bytes not delivered")
	}
}

// TestTransferNoCopy pins the pricing core: Price charges exactly the
// virtual time Transfer does for the same hop, and moves no bytes.
func TestTransferNoCopy(t *testing.T) {
	k, sys, f := setup(1)
	const n = 1<<20 + 64
	src := sys.Device(0).MustMalloc(n)
	dst := sys.Device(1).MustMalloc(n)
	src.FillBytes(1)
	var priced, moved time.Duration
	k.Spawn("main", func(p *sim.Proc) {
		var err error
		if priced, err = f.Price(p, dst.Device(), src.Device(), n, Opts{Channels: 4, ChunkBytes: 256 << 10}); err != nil {
			t.Error(err)
			return
		}
		if dst.Bytes()[0] != 0 {
			t.Error("Price moved bytes")
		}
		moved = f.Transfer(p, dst, src, n, Opts{Channels: 4, ChunkBytes: 256 << 10})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if priced <= 0 || priced != moved {
		t.Fatalf("Price took %v, Transfer %v; want equal and positive", priced, moved)
	}
	if !dst.Equal(src) {
		t.Fatal("Transfer did not deliver after Price")
	}
}

func TestTransferTimeMatchesLinkModel(t *testing.T) {
	k, sys, f := setup(1)
	const n = 4 << 20
	src := sys.Device(0).MustMalloc(n)
	dst := sys.Device(1).MustMalloc(n)
	var got time.Duration
	k.Spawn("main", func(p *sim.Proc) {
		got = f.Transfer(p, dst, src, n, Opts{Channels: 12})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := sys.Intra.Time(n, 12)
	// Chunked execution should match the closed-form α–β time exactly
	// when uncontended (chunks sum to the same wire time).
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > time.Microsecond {
		t.Fatalf("transfer = %v, model = %v", got, want)
	}
}

func TestSingleChannelIsSlower(t *testing.T) {
	k, sys, f := setup(1)
	const n = 4 << 20
	src := sys.Device(0).MustMalloc(2 * n)
	dst := sys.Device(1).MustMalloc(2 * n)
	var wide, narrow time.Duration
	k.Spawn("main", func(p *sim.Proc) {
		wide = f.Transfer(p, dst, src, n, Opts{Channels: 12})
		narrow = f.Transfer(p, dst, src, n, Opts{Channels: 2})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if narrow < 5*wide {
		t.Fatalf("2-channel %v not ≈6× slower than 12-channel %v", narrow, wide)
	}
}

func TestInterNodeUsesInterLink(t *testing.T) {
	k, sys, f := setup(2)
	const n = 4 << 20
	src := sys.Device(0).MustMalloc(n)
	dst := sys.Device(8).MustMalloc(n) // node 1
	var got time.Duration
	k.Spawn("main", func(p *sim.Proc) {
		got = f.Transfer(p, dst, src, n, Opts{Channels: 8})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := sys.Inter.Time(n, sys.Inter.DirChannels)
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > 2*time.Microsecond {
		t.Fatalf("inter transfer = %v, model = %v", got, want)
	}
}

func TestSameDeviceIsLocalCopy(t *testing.T) {
	k, sys, f := setup(1)
	d := sys.Device(0)
	src := d.MustMalloc(1 << 20)
	dst := d.MustMalloc(1 << 20)
	src.FillBytes(7)
	var got time.Duration
	k.Spawn("main", func(p *sim.Proc) {
		got = f.Transfer(p, dst, src, 1<<20, Opts{})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != d.CopyTime(1<<20) {
		t.Fatalf("local copy = %v, want %v", got, d.CopyTime(1<<20))
	}
	if !dst.Equal(src) {
		t.Fatal("local copy lost data")
	}
}

func TestHostStagingUsesHostLink(t *testing.T) {
	k, sys, f := setup(1)
	gpu := sys.Device(0)
	host := sys.Nodes[0].Host
	src := gpu.MustMalloc(1 << 20)
	dst := host.MustMalloc(1 << 20)
	var got time.Duration
	k.Spawn("main", func(p *sim.Proc) {
		got = f.Transfer(p, dst, src, 1<<20, Opts{Channels: 1})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := sys.HostLink.Time(1<<20, 1)
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if diff > time.Microsecond {
		t.Fatalf("host staging = %v, want %v", got, want)
	}
}

// Bidirectional transfers share the channel pool: aggregate bandwidth must
// exceed one direction's peak but stay well under 2×, matching Fig 3d's
// 181 GB/s vs 137 GB/s unidirectional.
func TestBidirectionalSharing(t *testing.T) {
	k, sys, f := setup(1)
	const n = 32 << 20
	a, b := sys.Device(0), sys.Device(1)
	bufA, bufB := a.MustMalloc(2*n), b.MustMalloc(2*n)
	var tA, tB time.Duration
	k.Spawn("a2b", func(p *sim.Proc) {
		tA = f.Transfer(p, bufB.Slice(0, n), bufA.Slice(0, n), n, Opts{Channels: 12})
	})
	k.Spawn("b2a", func(p *sim.Proc) {
		tB = f.Transfer(p, bufA.Slice(n, n), bufB.Slice(n, n), n, Opts{Channels: 12})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	solo := sys.Intra.Time(n, 12)
	end := tA
	if tB > end {
		end = tB
	}
	aggBW := 2 * float64(n) / end.Seconds()
	soloBW := float64(n) / solo.Seconds()
	if aggBW <= soloBW*1.15 {
		t.Fatalf("aggregate %v GB/s not > unidirectional %v GB/s", aggBW/1e9, soloBW/1e9)
	}
	if aggBW >= soloBW*1.75 {
		t.Fatalf("aggregate %v GB/s suspiciously close to 2× unidirectional %v GB/s", aggBW/1e9, soloBW/1e9)
	}
}

func TestContentionSlowsConcurrentFlows(t *testing.T) {
	k, sys, f := setup(2)
	const n = 8 << 20
	// Two flows from node 0 to node 1 share node 0's egress pool.
	s1 := sys.Device(0).MustMalloc(n)
	s2 := sys.Device(1).MustMalloc(n)
	d1 := sys.Device(8).MustMalloc(n)
	d2 := sys.Device(9).MustMalloc(n)
	var t1, t2 time.Duration
	k.Spawn("f1", func(p *sim.Proc) { t1 = f.Transfer(p, d1, s1, n, Opts{Channels: 4}) })
	k.Spawn("f2", func(p *sim.Proc) { t2 = f.Transfer(p, d2, s2, n, Opts{Channels: 4}) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	solo := sys.Inter.Time(n, 4)
	if t1 < solo+solo/4 && t2 < solo+solo/4 {
		t.Fatalf("no contention visible: t1=%v t2=%v solo=%v", t1, t2, solo)
	}
}

func TestControlMsgChargesAlpha(t *testing.T) {
	k, sys, f := setup(2)
	var intra, inter, local time.Duration
	k.Spawn("main", func(p *sim.Proc) {
		msg := func(dst int) time.Duration {
			d, err := f.TryControlMsg(p, sys.Device(0), sys.Device(dst))
			if err != nil {
				t.Errorf("control msg 0->%d: %v", dst, err)
			}
			return d
		}
		local, intra, inter = msg(0), msg(1), msg(8)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if local != 0 {
		t.Fatalf("local control msg cost %v", local)
	}
	if intra != sys.Intra.Alpha {
		t.Fatalf("intra control msg = %v, want %v", intra, sys.Intra.Alpha)
	}
	if inter != sys.Inter.Alpha {
		t.Fatalf("inter control msg = %v, want %v", inter, sys.Inter.Alpha)
	}
	if k.Now() != intra+inter {
		t.Fatalf("clock at %v, want the two charged alphas %v", k.Now(), intra+inter)
	}
}

func TestZeroByteTransferCostsAlphaOnly(t *testing.T) {
	k, sys, f := setup(1)
	src := sys.Device(0).MustMalloc(16)
	dst := sys.Device(1).MustMalloc(16)
	var got time.Duration
	k.Spawn("main", func(p *sim.Proc) {
		got = f.Transfer(p, dst, src, 0, Opts{})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != sys.Intra.Alpha {
		t.Fatalf("zero-byte transfer = %v, want α=%v", got, sys.Intra.Alpha)
	}
}

func TestOversizeTransferPanics(t *testing.T) {
	k, sys, f := setup(1)
	src := sys.Device(0).MustMalloc(16)
	dst := sys.Device(1).MustMalloc(8)
	k.Spawn("main", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("oversize transfer did not panic")
			}
		}()
		f.Transfer(p, dst, src, 16, Opts{})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDetachedBufferPanics(t *testing.T) {
	k, sys, f := setup(1)
	src := device.NewHostBuffer(16)
	dst := sys.Device(0).MustMalloc(16)
	k.Spawn("main", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("detached buffer transfer did not panic")
			}
		}()
		f.Transfer(p, dst, src, 16, Opts{})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
