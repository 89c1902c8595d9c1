package core

import (
	"testing"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/fault"
	"mpixccl/internal/metrics"
	"mpixccl/internal/mpi"
)

// allreduceOnce runs one correctness-checked 4-byte-per-element Allreduce.
func allreduceOnce(t *testing.T, x *Comm, count int) {
	t.Helper()
	send := x.Device().MustMalloc(int64(count) * 4)
	recv := x.Device().MustMalloc(int64(count) * 4)
	defer send.Free()
	defer recv.Free()
	send.FillFloat32(float32(x.Rank() + 1))
	x.Allreduce(send, recv, count, mpi.Float32, mpi.OpSum)
	want := float32(x.Size() * (x.Size() + 1) / 2)
	if got := recv.Float32(count / 2); got != want {
		t.Errorf("allreduce sum = %v, want %v", got, want)
	}
}

// A transient xcclRemoteError on one rank's call must be absorbed by the
// retry policy: the operation still completes on the CCL path, no fallback,
// and the retry is visible in stats and the xccl_retries_total family.
func TestTransientErrorsAbsorbedByRetries(t *testing.T) {
	reg := metrics.NewRegistry()
	rt := newRuntime(t, "thetagpu", 4, Options{Backend: Auto, Mode: PureCCL, Metrics: reg})
	plan := fault.NewPlan(1).AddRule(fault.Rule{
		Name: "transient", Op: "allreduce", Result: ccl.ErrRemote, Count: 1,
	})
	rt.Job().Fabric().SetFaults(plan)

	if err := rt.Run(func(x *Comm) { allreduceOnce(t, x, 1<<10) }); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Retries != 1 {
		t.Errorf("retries = %d, want 1", st.Retries)
	}
	if st.CCLOps != 4 || st.MPIOps != 0 || st.Fallbacks.Error != 0 {
		t.Errorf("ops = %+v, want all 4 on CCL with no fallback", st)
	}
	if got := plan.Fired("transient"); got != 1 {
		t.Errorf("rule fired %d times, want 1", got)
	}
	v, ok := reg.CounterValue("xccl_retries_total", metrics.Labels{
		"op": "allreduce", "backend": "nccl", "result": "xcclRemoteError"})
	if !ok || v != 1 {
		t.Errorf("xccl_retries_total = %v (exists %v), want exactly 1", v, ok)
	}
	if _, ok := reg.CounterValue("xccl_breaker_transitions_total", metrics.Labels{
		"backend": "nccl", "op": "allreduce", "to": "open"}); ok {
		t.Error("transient error must not trip the breaker")
	}
}

// A persistent failure burst must open the (backend, op) breaker: further
// calls skip the CCL without paying its failure, a half-open probe after
// the cooldown re-opens when it fails, and a clean probe closes it again.
// Every transition count is asserted exactly.
func TestPersistentFailureTripsBreakerAndRecovers(t *testing.T) {
	reg := metrics.NewRegistry()
	rt := newRuntime(t, "thetagpu", 2, Options{
		Backend: Auto, Mode: PureCCL, Metrics: reg,
		Resilience: &Resilience{
			MaxRetries: 2, BreakerThreshold: 2,
		},
	})
	// Four persistent failures: wave 1 (2 ranks) opens the breaker, the
	// half-open probe wave (2 ranks) exhausts the rule re-opening it.
	plan := fault.NewPlan(7).AddRule(fault.Rule{
		Name: "broken", Op: "allreduce", Result: ccl.ErrInternal, Count: 4,
	})
	rt.Job().Fabric().SetFaults(plan)

	if err := rt.Run(func(x *Comm) {
		allreduceOnce(t, x, 256) // wave 1: both ranks fail, breaker opens
		allreduceOnce(t, x, 256) // wave 2: breaker open, CCL skipped
		x.MPI().Proc().Sleep(2 * time.Millisecond)
		allreduceOnce(t, x, 256) // wave 3: half-open probe fails, re-opens
		x.MPI().Proc().Sleep(2 * time.Millisecond)
		allreduceOnce(t, x, 256) // wave 4: probe succeeds, breaker closes
	}); err != nil {
		t.Fatal(err)
	}

	st := rt.Stats()
	if st.BreakerSkips != 2 {
		t.Errorf("breaker skips = %d, want 2 (wave 2)", st.BreakerSkips)
	}
	if st.CCLOps != 2 || st.MPIOps != 6 {
		t.Errorf("CCLOps=%d MPIOps=%d, want 2 and 6", st.CCLOps, st.MPIOps)
	}
	if st.Fallbacks.Error != 6 {
		t.Errorf("error fallbacks = %d, want 6 (4 ccl_error + 2 breaker_open)", st.Fallbacks.Error)
	}
	if st.Retries != 0 {
		t.Errorf("retries = %d, want 0 (xcclInternalError is not transient)", st.Retries)
	}
	for to, want := range map[string]float64{"open": 2, "half_open": 2, "closed": 1} {
		v, ok := reg.CounterValue("xccl_breaker_transitions_total", metrics.Labels{
			"backend": "nccl", "op": "allreduce", "to": to})
		if !ok || v != want {
			t.Errorf("breaker transitions to %s = %v (exists %v), want %v", to, v, ok, want)
		}
	}
	v, ok := reg.CounterValue("xccl_fallbacks_total", metrics.Labels{
		"op": "allreduce", "cause": "breaker_open", "backend": "nccl"})
	if !ok || v != 2 {
		t.Errorf("breaker_open fallbacks = %v (exists %v), want 2", v, ok)
	}
}

// An injected comm-init failure must fail every rendezvoused rank with the
// same error (Runtime.pending err propagation), fall back to MPI, and not
// be cached: the next collective wave retries the creation and succeeds.
func TestCommInitFailurePropagatesAndRetries(t *testing.T) {
	reg := metrics.NewRegistry()
	rt := newRuntime(t, "thetagpu", 4, Options{
		Backend: Auto, Mode: PureCCL, Metrics: reg,
		// High threshold: this test isolates the init path from the breaker.
		Resilience: &Resilience{BreakerThreshold: 100},
	})
	plan := fault.NewPlan(3).AddRule(fault.Rule{
		Name: "bad-init", Point: fault.CommInit, Result: ccl.ErrInternal, Count: 1,
	})
	rt.Job().Fabric().SetFaults(plan)

	if err := rt.Run(func(x *Comm) {
		allreduceOnce(t, x, 256) // wave 1: comm init fails, all ranks fall back
		allreduceOnce(t, x, 256) // wave 2: init retried and succeeds
	}); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Fallbacks.Error != 4 || st.MPIOps != 4 {
		t.Errorf("stats after failed init = %+v, want 4 error fallbacks / 4 MPI ops", st)
	}
	if st.CCLOps != 4 {
		t.Errorf("CCLOps = %d, want 4 (second wave heals)", st.CCLOps)
	}
	if got := plan.Fired("bad-init"); got != 1 {
		t.Errorf("init rule fired %d times, want 1 (creation attempted once per wave)", got)
	}
}

// A link-degradation window must slow a CCL Allreduce sweep without
// deadlocking it, and the degraded transfers must be counted.
func TestLinkDegradationSlowsButCompletes(t *testing.T) {
	elapsed := func(plan *fault.Plan, reg *metrics.Registry) time.Duration {
		rt := newRuntime(t, "thetagpu", 4, Options{Backend: Auto, Mode: PureCCL, Metrics: reg})
		if plan != nil {
			rt.Job().Fabric().SetFaults(plan)
		}
		var total time.Duration
		if err := rt.Run(func(x *Comm) {
			start := x.MPI().Proc().Now()
			for count := 1 << 10; count <= 1<<18; count <<= 2 {
				allreduceOnce(t, x, count)
			}
			if x.Rank() == 0 {
				total = x.MPI().Proc().Now() - start
			}
		}); err != nil {
			t.Fatal(err)
		}
		return total
	}

	clean := elapsed(nil, nil)
	reg := metrics.NewRegistry()
	plan := fault.NewPlan(9).AddLinkRule(fault.LinkRule{
		Name: "brownout", Link: "intra", BWScale: 0.25, ChannelCap: 2,
	})
	degraded := elapsed(plan, reg)

	if degraded <= clean {
		t.Errorf("degraded sweep (%v) not slower than clean (%v)", degraded, clean)
	}
	if degraded > 64*clean {
		t.Errorf("degraded sweep %v unboundedly slower than clean %v", degraded, clean)
	}
	if v, ok := reg.CounterValue("xccl_degraded_transfers_total",
		metrics.Labels{"link": "intra"}); !ok || v <= 0 {
		t.Errorf("degraded transfers = %v (exists %v), want > 0", v, ok)
	}
}

// A failure inside a batched group (a send of an Alltoall) must not leave
// the rank's group open: ccl's group synthesis discards it, so the
// transient retry's GroupStart does not see a phantom "nested group". Wave 2's sends fail
// once per rank (transient), every rank retries into a clean group, and
// the whole run stays on the CCL path.
func TestMidGroupFailureAbortsGroupForRetry(t *testing.T) {
	rt := newRuntime(t, "thetagpu", 4, Options{Backend: Auto, Mode: PureCCL})
	// Wave 1 issues 4 ranks × 3 sends = 12 clean calls; the next 4 send
	// validations (each rank's first send of wave 2) fail transiently.
	plan := fault.NewPlan(5).AddRule(fault.Rule{
		Name: "mid-group", Op: "send", Result: ccl.ErrRemote, After: 12, Count: 4,
	})
	rt.Job().Fabric().SetFaults(plan)

	if err := rt.Run(func(x *Comm) {
		n := x.Size()
		blk := int64(1024)
		send := x.Device().MustMalloc(blk * int64(n))
		recv := x.Device().MustMalloc(blk * int64(n))
		defer send.Free()
		defer recv.Free()
		for i := 0; i < 3; i++ {
			x.Alltoall(send, 256, mpi.Float32, recv)
		}
	}); err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.Retries != 4 {
		t.Errorf("retries = %d, want 4 (one per rank)", st.Retries)
	}
	if st.CCLOps != 12 || st.MPIOps != 0 {
		t.Errorf("CCLOps=%d MPIOps=%d, want all 12 on the CCL path", st.CCLOps, st.MPIOps)
	}
}
