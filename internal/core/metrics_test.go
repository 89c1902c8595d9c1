package core

import (
	"testing"

	"mpixccl/internal/metrics"
	"mpixccl/internal/mpi"
)

func TestMetricsFallbackCounterDoubleComplexOnHCCL(t *testing.T) {
	// HCCL has no complex datatype, so every rank's Allreduce must divert
	// to MPI and count a datatype fallback (§3.4 in the paper; the same
	// case Fig 2's dispatch diagram routes left).
	reg := metrics.NewRegistry()
	rt := newRuntime(t, "voyager", 8, Options{Backend: Auto, Mode: PureCCL, Metrics: reg})
	err := rt.Run(func(x *Comm) {
		send := x.Device().MustMalloc(32)
		recv := x.Device().MustMalloc(32)
		send.SetFloat64(0, 1)
		x.Allreduce(send, recv, 2, mpi.DoubleComplex, mpi.OpSum)
	})
	if err != nil {
		t.Fatal(err)
	}
	fb, ok := reg.CounterValue("xccl_fallbacks_total",
		metrics.Labels{"op": "allreduce", "cause": "datatype", "backend": "hccl"})
	if !ok || fb != 8 {
		t.Errorf("datatype fallback counter = %v, %v; want 8, true", fb, ok)
	}
	ops, ok := reg.CounterValue(famOps.name, metrics.Labels{
		"op": "allreduce", "path": "mpi", "backend": "hccl", "size_bucket": "0-1KiB"})
	if !ok || ops != 8 {
		t.Errorf("mpi-path op counter = %v, %v; want 8, true", ops, ok)
	}
	if _, ok := reg.CounterValue(famOps.name, metrics.Labels{
		"op": "allreduce", "path": "ccl", "backend": "hccl", "size_bucket": "0-1KiB"}); ok {
		t.Error("complex allreduce must not count a ccl-path op")
	}
}

func TestMetricsHybridDispatchCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	rt := newRuntime(t, "thetagpu", 8, Options{Backend: Auto, Mode: Hybrid, Metrics: reg})
	err := rt.Run(func(x *Comm) {
		small := x.Device().MustMalloc(1 << 10)
		large := x.Device().MustMalloc(1 << 20)
		x.Allreduce(small, small, 256, mpi.Float32, mpi.OpSum)   // 1 KB -> MPI
		x.Allreduce(large, large, 1<<18, mpi.Float32, mpi.OpSum) // 1 MB -> CCL
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		path, bucket string
	}{{"mpi", "0-1KiB"}, {"ccl", "256KiB-4MiB"}} {
		v, ok := reg.CounterValue(famOps.name, metrics.Labels{
			"op": "allreduce", "path": want.path, "backend": "nccl", "size_bucket": want.bucket})
		if !ok || v != 8 {
			t.Errorf("path=%s op counter = %v, %v; want 8, true", want.path, v, ok)
		}
	}
	// Both dispatches consult the tuning table; the decisions split by path.
	for _, decision := range []string{"mpi", "ccl"} {
		v, ok := reg.CounterValue("xccl_tuning_lookups_total",
			metrics.Labels{"op": "allreduce", "decision": decision, "table": "hit"})
		if !ok || v != 8 {
			t.Errorf("tuning decision=%s = %v, %v; want 8, true", decision, v, ok)
		}
	}
	// The MPI-path allreduce rides on point-to-point sends, so protocol
	// counters must be live too.
	if c, _ := reg.CounterValue("mpi_sends_total",
		metrics.Labels{"protocol": "eager", "profile": rt.Job().Profile().Name}); c == 0 {
		t.Error("expected eager mpi sends from the small allreduce")
	}
}
