package core

import (
	"testing"

	"mpixccl/internal/ccl"
	"mpixccl/internal/ccl/nccl"
	"mpixccl/internal/fault"
	"mpixccl/internal/mpi"
)

// brokenBuild is the paper's §4.4 environment: an NCCL 2.18.3 build that
// failed against the site's TensorFlow stack. It initializes fine and fails
// every call, a fault rule on the world's fabric.
func brokenBuild() *fault.Plan {
	return fault.NewPlan(1).AddRule(fault.Rule{Name: "broken-build", Result: ccl.ErrInternal})
}

// The paper's §4.4 anecdote: pure NCCL 2.18.3 failed against the site's
// TensorFlow stack, while the xCCL designs "bypass such errors". Build a
// runtime over a fabric carrying the broken build: every collective must
// transparently complete on the MPI path with correct results, and the
// error fallback counter must account for it.
func TestBrokenNCCLBuildFallsBackTransparently(t *testing.T) {
	rt := newRuntime(t, "thetagpu", 4, Options{Backend: Auto, Mode: PureCCL})
	rt.Job().Fabric().SetFaults(brokenBuild())

	const count = 1 << 20 // 4 MB: would dispatch to NCCL
	err := rt.Run(func(x *Comm) {
		send := x.Device().MustMalloc(count * 4)
		recv := x.Device().MustMalloc(count * 4)
		send.FillFloat32(float32(x.Rank() + 1))
		x.Allreduce(send, recv, count, mpi.Float32, mpi.OpSum)
		if recv.Float32(123) != 10 {
			t.Errorf("sum through fallback = %v, want 10", recv.Float32(123))
		}
		x.Bcast(send, count, mpi.Float32, 0)
		x.Allgather(send.Slice(0, 1024), 256, mpi.Float32, recv.Slice(0, 4096))
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Fallbacks.Error != 12 { // 3 ops × 4 ranks
		t.Errorf("error fallbacks = %d, want 12", st.Fallbacks.Error)
	}
	if st.CCLOps != 0 {
		t.Errorf("broken build executed %d CCL ops", st.CCLOps)
	}
	if st.MPIOps != 12 {
		t.Errorf("MPI ops = %d, want 12", st.MPIOps)
	}
}

// A broken build must also fail p2p operations at the CCL level.
func TestBrokenBuildFailsP2P(t *testing.T) {
	rt := newRuntime(t, "thetagpu", 2, Options{Backend: Auto, Mode: PureCCL})
	fab := rt.Job().Fabric()
	fab.SetFaults(brokenBuild())
	comms, err := nccl.New(fab, fab.System().Devices()[:2])
	if err != nil {
		t.Fatal(err)
	}
	buf := comms[0].Device().MustMalloc(64)
	s := comms[0].Device().NewStream()
	if err := comms[0].Send(buf, 16, ccl.Float32, 1, s); err == nil {
		t.Fatal("broken build accepted a send")
	}
}
