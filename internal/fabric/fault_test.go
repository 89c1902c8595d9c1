package fabric

import (
	"testing"
	"time"

	"mpixccl/internal/device"
	"mpixccl/internal/metrics"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// stubDegrader degrades every intra-node route, unconditionally.
type stubDegrader struct{ lf LinkFault }

func (s stubDegrader) DegradedLink(class string, srcNode, dstNode int, now time.Duration) (LinkFault, bool) {
	if class != "intra" {
		return LinkFault{}, false
	}
	return s.lf, true
}

func (s stubDegrader) DegradedNow(now time.Duration) (LinkFault, bool) { return s.lf, true }

func TestTryTransferReturnsErrorNotPanic(t *testing.T) {
	k, sys, f := setup(1)
	good := sys.Device(0).MustMalloc(16)
	short := sys.Device(1).MustMalloc(8)
	detached := device.NewHostBuffer(16)
	k.Spawn("main", func(p *sim.Proc) {
		before := p.Now()
		if _, err := f.TryTransfer(p, short.Whole(), good.Whole(), 16, Opts{}); err == nil {
			t.Error("oversize transfer returned nil error")
		}
		if _, err := f.TryTransfer(p, good.Whole(), detached.Whole(), 16, Opts{}); err == nil {
			t.Error("detached source returned nil error")
		}
		if p.Now() != before {
			t.Error("failed transfers consumed virtual time")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// A transfer endpoint from another system has no route on this fabric,
// whether the other system has the same shape (its device sits at the
// same node and local index as one of ours) or more nodes than ours. Every
// entry point fails before any time passes.
func TestTryTransferForeignSystemErrors(t *testing.T) {
	k, sys, f := setup(1)
	other := topology.ThetaGPU(k, 2)
	ours := sys.Device(0).MustMalloc(16)
	foreign := map[string]*device.Device{
		"twin device":     other.Device(1),
		"twin host":       other.Nodes[0].Host,
		"beyond our node": other.Nodes[1].Devices[0],
		"beyond our host": other.Nodes[1].Host,
	}
	k.Spawn("main", func(p *sim.Proc) {
		before := p.Now()
		for name, d := range foreign {
			buf := d.MustMalloc(16)
			if _, err := f.TryTransfer(p, ours.Whole(), buf.Whole(), 16, Opts{}); err == nil {
				t.Errorf("%s as source: nil error", name)
			}
			if _, err := f.TryTransfer(p, buf.Whole(), ours.Whole(), 16, Opts{}); err == nil {
				t.Errorf("%s as destination: nil error", name)
			}
			if _, err := f.Price(p, d, sys.Device(1), 16, Opts{}); err == nil {
				t.Errorf("%s priced: nil error", name)
			}
			if _, err := f.TryControlMsg(p, sys.Device(0), d); err == nil {
				t.Errorf("%s control message: nil error", name)
			}
		}
		if p.Now() != before {
			t.Error("failed transfers consumed virtual time")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTryControlMsgReturnsErrorNotPanic(t *testing.T) {
	k, sys, f := setup(1)
	dst := sys.Device(0)
	k.Spawn("main", func(p *sim.Proc) {
		if _, err := f.TryControlMsg(p, device.NewHostBuffer(1).Device(), dst); err == nil {
			t.Error("control msg with detached endpoint returned nil error")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// A degraded link must stretch wire time by 1/BWScale and count the
// transfer in xccl_degraded_transfers_total.
func TestDegradedLinkSlowsTransferAndCounts(t *testing.T) {
	const n = 4 << 20
	run := func(deg Degrader, reg *metrics.Registry) time.Duration {
		k, sys, f := setup(1)
		if deg != nil {
			f.SetFaults(deg)
		}
		f.SetMetrics(reg)
		src := sys.Device(0).MustMalloc(n)
		dst := sys.Device(1).MustMalloc(n)
		var got time.Duration
		k.Spawn("main", func(p *sim.Proc) {
			got = f.Transfer(p, dst, src, n, Opts{Channels: 12})
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}

	clean := run(nil, nil)
	reg := metrics.NewRegistry()
	slow := run(stubDegrader{LinkFault{BWScale: 0.5}}, reg)
	if slow < clean+clean/2 {
		t.Errorf("half-bandwidth transfer %v not ≈2× clean %v", slow, clean)
	}
	v, ok := reg.CounterValue("xccl_degraded_transfers_total", metrics.Labels{"link": "intra"})
	if !ok || v != 1 {
		t.Errorf("degraded transfers = %v (exists %v), want 1", v, ok)
	}

	// A channel cap bites like a narrower Opts.Channels request.
	capped := run(stubDegrader{LinkFault{ChannelCap: 2}}, nil)
	if capped < 3*clean {
		t.Errorf("2-channel cap %v not ≫ 12-channel clean %v", capped, clean)
	}
}
