package ccl_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/ccl/nccl"
	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/fault"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// groupOp is one send or receive of a whole buffer to or from peer.
type groupOp struct {
	peer int
	buf  *device.Buffer
}

// groupSend runs one group of the given sends and receives on s and waits
// for it.
func groupSend(t *testing.T, c *ccl.Comm, s *device.Stream, p *sim.Proc, sends, recvs []groupOp) {
	t.Helper()
	if err := c.GroupStart(); err != nil {
		t.Fatal(err)
	}
	for _, op := range sends {
		if err := c.Send(op.buf, int(op.buf.Len()), ccl.Int8, op.peer, s); err != nil {
			t.Fatal(err)
		}
	}
	for _, op := range recvs {
		if err := c.Recv(op.buf, int(op.buf.Len()), ccl.Int8, op.peer, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.GroupEnd(); err != nil {
		t.Fatal(err)
	}
	s.Synchronize(p)
}

// TestGroupSendToDeadPeerEndsWithVerdict sends a group to a fail-stopped
// peer with the watchdog armed. The send holds one of the rank's resident
// workers until the watchdog fires, so the group must end within the
// deadline with an ErrRankDead verdict naming the dead peer, and the
// worker must come free: the next group on the same stream, with a live
// peer, completes cleanly.
func TestGroupSendToDeadPeerEndsWithVerdict(t *testing.T) {
	const (
		n  = 3
		wd = time.Millisecond
	)
	k := sim.NewKernel()
	sys, err := topology.Preset(k, "thetagpu", 1)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(k, sys)
	fab.SetFaults(fault.NewPlan(1).
		AddRule(fault.Rule{Name: "crash", Crash: true, Ranks: []int{n - 1}, From: time.Nanosecond}))
	comms, err := nccl.New(fab, sys.Devices()[:n])
	if err != nil {
		t.Fatal(err)
	}
	comms[0].SetWatchdog(wd)
	h := &harness{k: k, sys: sys, fab: fab, comms: comms}
	firstDone := sim.NewEvent(k)
	payload := bytes.Repeat([]byte{1, 2, 3, 4, 5}, 1000)
	var got []byte
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		dev := c.Device()
		switch r {
		case 0:
			start := p.Now()
			groupSend(t, c, s, p, []groupOp{{n - 1, dev.MustMalloc(4 << 10)}}, nil)
			var ce *ccl.Error
			if err := c.TakeAsyncErr(); !errors.As(err, &ce) || ce.Result != ccl.ErrRankDead || ce.Rank != n-1 {
				t.Errorf("group to the dead peer: verdict %v, want ErrRankDead naming rank %d", err, n-1)
			}
			if took := p.Now() - start; took >= 2*wd {
				t.Errorf("group to the dead peer took %v of virtual time, want under %v", took, 2*wd)
			}
			firstDone.Fire()
			out := dev.MustMalloc(int64(len(payload)))
			copy(out.Bytes(), payload)
			groupSend(t, c, s, p, []groupOp{{1, out}}, nil)
			if err := c.TakeAsyncErr(); err != nil {
				t.Errorf("next group on the stream: verdict %v, want none", err)
			}
		case 1:
			firstDone.Wait(p)
			in := dev.MustMalloc(int64(len(payload)))
			groupSend(t, c, s, p, nil, []groupOp{{0, in}})
			if err := c.TakeAsyncErr(); err != nil {
				t.Errorf("rank 1: verdict %v, want none", err)
			}
			got = in.Bytes()
		}
	})
	if !bytes.Equal(got, payload) {
		t.Error("the group after the dead-peer group delivered the wrong bytes")
	}
}

// TestGroupSendOrphanedDeadlocks is the disarmed counterpart: a group send
// nobody receives blocks its worker forever, and the busy worker counts as
// live, so Run reports the deadlock and names it.
func TestGroupSendOrphanedDeadlocks(t *testing.T) {
	h := newHarness(t, "thetagpu", 2, nccl.New)
	defer h.k.Close()
	s := h.comms[0].Device().NewStream()
	h.k.Spawn("main", func(p *sim.Proc) {
		groupSend(t, h.comms[0], s, p, []groupOp{{1, h.comms[0].Device().MustMalloc(64)}}, nil)
	})
	err := h.k.Run()
	var de *sim.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want *sim.DeadlockError", err)
	}
	worker := h.comms[0].Backend() + "/r0/worker0(chan recv)"
	if want := []string{"main(event)", worker}; fmt.Sprint(de.Blocked) != fmt.Sprint(want) {
		t.Errorf("blocked = %q, want %q", de.Blocked, want)
	}
}
