package fabric

import (
	"testing"
	"time"

	"mpixccl/internal/metrics"
	"mpixccl/internal/sim"
)

// stubCorrupter flips fixed offsets on the first `hits` intra-node
// transfer attempts, then goes quiet — the shape of a transient wire
// error that a retransmit heals.
type stubCorrupter struct {
	offs []int64
	hits int
	seen int
}

func (s *stubCorrupter) CorruptTransfer(class string, srcNode, dstNode int, n int64, now time.Duration) []int64 {
	if class != "intra" || s.seen >= s.hits {
		return nil
	}
	s.seen++
	return s.offs
}

// With integrity off, an injected corruption is delivered silently: the
// payload differs from the source and no detection counter moves.
func TestCorruptionSilentWithoutIntegrity(t *testing.T) {
	k, sys, f := setup(1)
	reg := metrics.NewRegistry()
	f.SetMetrics(reg)
	f.SetFaults(&stubCorrupter{offs: []int64{0, 7}, hits: 1})
	src := sys.Device(0).MustMalloc(64)
	dst := sys.Device(1).MustMalloc(64)
	src.FillBytes(0x11)
	k.Spawn("main", func(p *sim.Proc) {
		f.Transfer(p, dst, src, 64, Opts{Channels: 12})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	b := dst.Bytes()
	if b[0] != 0x11^0xff || b[7] != 0x11^0xff {
		t.Errorf("flipped bytes not delivered: got %#x, %#x", b[0], b[7])
	}
	if b[1] != 0x11 {
		t.Errorf("untargeted byte changed: %#x", b[1])
	}
	lbl := metrics.Labels{"link": "intra"}
	if v, _ := reg.CounterValue("xccl_corruptions_injected_total", lbl); v != 1 {
		t.Errorf("injected counter = %v, want 1", v)
	}
	if v, ok := reg.CounterValue("xccl_corruptions_detected_total", lbl); ok && v != 0 {
		t.Errorf("detected counter moved without integrity: %v", v)
	}
}

// With integrity on, the CRC32C mismatch is detected and the transfer
// retransmitted until the payload matches the source bytewise.
func TestIntegrityDetectsAndRetransmits(t *testing.T) {
	k, sys, f := setup(1)
	reg := metrics.NewRegistry()
	f.SetMetrics(reg)
	f.SetFaults(&stubCorrupter{offs: []int64{3}, hits: 2})
	f.SetIntegrity(Integrity{Enabled: true, MaxRetries: 4})
	src := sys.Device(0).MustMalloc(256)
	dst := sys.Device(1).MustMalloc(256)
	src.FillBytes(0x42)
	k.Spawn("main", func(p *sim.Proc) {
		f.Transfer(p, dst, src, 256, Opts{Channels: 12})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(src) {
		t.Fatal("integrity-checked transfer delivered a corrupted payload")
	}
	lbl := metrics.Labels{"link": "intra"}
	if v, _ := reg.CounterValue("xccl_corruptions_detected_total", lbl); v != 2 {
		t.Errorf("detected counter = %v, want 2", v)
	}
	if v, _ := reg.CounterValue("xccl_transfer_retransmits_total", lbl); v != 2 {
		t.Errorf("retransmit counter = %v, want 2", v)
	}
	if v, ok := reg.CounterValue("xccl_corruptions_unrecovered_total", lbl); ok && v != 0 {
		t.Errorf("unrecovered counter moved on a healed transfer: %v", v)
	}
}

// A retransmit replays the full α–β pipeline, so a healed transfer costs
// one extra wire time — virtual time, not just byte contents, reflects
// the recovery.
func TestRetransmitPaysWireTime(t *testing.T) {
	const n = 1 << 20
	run := func(corrupt bool) time.Duration {
		k, sys, f := setup(1)
		if corrupt {
			f.SetFaults(&stubCorrupter{offs: []int64{n / 2}, hits: 1})
		}
		f.SetIntegrity(Integrity{Enabled: true, MaxRetries: 4})
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
	clean := run(false)
	healed := run(true)
	if healed < clean+clean/2 {
		t.Errorf("healed transfer %v not ≈2× clean %v", healed, clean)
	}
}

// An adversary that corrupts every attempt exhausts MaxRetries: the
// corrupted payload is delivered (erroring would strand the peer mid-
// collective) and the unrecovered counter records the giving-up.
func TestIntegrityGivesUpAfterMaxRetries(t *testing.T) {
	k, sys, f := setup(1)
	reg := metrics.NewRegistry()
	f.SetMetrics(reg)
	f.SetFaults(&stubCorrupter{offs: []int64{5}, hits: 1 << 30})
	f.SetIntegrity(Integrity{Enabled: true, MaxRetries: 3})
	src := sys.Device(0).MustMalloc(64)
	dst := sys.Device(1).MustMalloc(64)
	src.FillBytes(0x33)
	k.Spawn("main", func(p *sim.Proc) {
		f.Transfer(p, dst, src, 64, Opts{Channels: 12})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if dst.Bytes()[5] != 0x33^0xff {
		t.Error("exhausted-budget transfer did not deliver the final (corrupt) payload")
	}
	lbl := metrics.Labels{"link": "intra"}
	if v, _ := reg.CounterValue("xccl_corruptions_unrecovered_total", lbl); v != 1 {
		t.Errorf("unrecovered counter = %v, want 1", v)
	}
	if v, _ := reg.CounterValue("xccl_transfer_retransmits_total", lbl); v != 3 {
		t.Errorf("retransmit counter = %v, want 3 (the full budget)", v)
	}
}

// Faithful holds only on a bare fabric: an attached corrupter must see a
// real copy to flip, and integrity must checksum one, so either one turns it
// off — and detaching or disabling turns it back on.
func TestFaithfulDelivery(t *testing.T) {
	_, _, f := setup(1)
	if !f.Faithful() {
		t.Fatal("bare fabric not faithful")
	}
	f.SetFaults(&stubCorrupter{})
	if f.Faithful() {
		t.Error("faithful with a corrupter attached")
	}
	f.SetFaults(nil)
	if !f.Faithful() {
		t.Error("not faithful after detaching the corrupter")
	}
	f.SetIntegrity(Integrity{Enabled: true})
	if f.Faithful() {
		t.Error("faithful with integrity on")
	}
	f.SetIntegrity(Integrity{})
	if !f.Faithful() {
		t.Error("not faithful after integrity off")
	}
}

// Integrity checking is modeled as NIC-offloaded: with no corruption it
// must not change transfer timing at all (golden-exhibit safety).
func TestIntegrityFreeWhenClean(t *testing.T) {
	const n = 4 << 20
	run := func(enabled bool) time.Duration {
		k, sys, f := setup(1)
		f.SetIntegrity(Integrity{Enabled: enabled, MaxRetries: 4})
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
	if off, on := run(false), run(true); off != on {
		t.Errorf("integrity changed clean-path timing: off %v, on %v", off, on)
	}
}
