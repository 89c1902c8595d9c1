package ccl

import (
	"strings"
	"testing"

	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// TestHelperPostWhileBusyPanics pins the one-job-at-a-time contract of the
// resident helper: a second post before the first job has completed must
// fail loudly rather than queue behind it or be dropped, either of which
// would leave a ring step waiting on a send that never happens. A post
// after the first job's latch has fired is accepted.
func TestHelperPostWhileBusyPanics(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	sys, err := topology.Preset(k, "thetagpu", 1)
	if err != nil {
		t.Fatal(err)
	}
	comms, err := NewComms(fabric.New(k, sys), sys.Devices()[:2], testBackend())
	if err != nil {
		t.Fatal(err)
	}
	co := comms[0].core
	st := co.join(0, 0, co.newArgs(nil, nil, 0, 0))
	var got any
	k.Spawn("rank", func(p *sim.Proc) {
		rc := co.getCtx(st, 0, p)
		src := co.devs[0].MustMalloc(64)
		rc.putAsync(1, staged, device.View{}, src.Whole(), 64, 64).Wait(p)
		rc.putAsync(1, staged, device.View{}, src.Whole(), 64, 64) // the first job completed: accepted
		defer func() { got = recover() }()
		rc.putAsync(1, staged, device.View{}, src.Whole(), 64, 64)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if msg, _ := got.(string); !strings.Contains(msg, "still running") {
		t.Fatalf("second post on a busy helper: recovered %v, want a busy-helper panic", got)
	}
}
