package core

import (
	"sync"
	"testing"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/device"
	"mpixccl/internal/fault"
	"mpixccl/internal/metrics"
	"mpixccl/internal/mpi"
)

// The half-open probe under concurrency, two layers at once: inside each
// simulation, every rank issues three nonblocking Allreduces concurrently
// right as the breaker cooldown elapses, so multiple dispatch waves race
// through the open->half_open transition (wave-consistent verdicts must
// produce exactly one transition); and four such simulations run on real
// goroutines sharing one metrics registry, which `go test -race` checks
// for unsynchronized access (scripts/check.sh runs this package with
// -race).
func TestBreakerHalfOpenProbeConcurrentRanks(t *testing.T) {
	reg := metrics.NewRegistry()
	const nRuntimes = 4
	rts := make([]*Runtime, nRuntimes)
	for i := range rts {
		rts[i] = newRuntime(t, "thetagpu", 4, Options{
			Backend: Auto, Mode: PureCCL, Metrics: reg,
			Resilience: &Resilience{BreakerThreshold: 2},
		})
		// Wave 1 fails on every rank (opening the breaker); the probe
		// waves after the cooldown find the budget exhausted and succeed.
		plan := fault.NewPlan(uint64(11 + i)).AddRule(fault.Rule{
			Name: "burst", Op: "allreduce", Result: ccl.ErrInternal, Count: 4,
		})
		rts[i].Job().Fabric().SetFaults(plan)
	}

	var wg sync.WaitGroup
	errs := make(chan error, nRuntimes)
	for _, rt := range rts {
		rt := rt
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- rt.Run(func(x *Comm) {
				const count = 256
				send := x.Device().MustMalloc(count * 4)
				defer send.Free()
				send.FillFloat32(float32(x.Rank() + 1))
				recvs := make([]*device.Buffer, 3)
				for i := range recvs {
					recvs[i] = x.Device().MustMalloc(count * 4)
					defer recvs[i].Free()
				}
				// Wave 1: every rank's call fails, the breaker opens.
				x.Allreduce(send, recvs[0], count, mpi.Float32, mpi.OpSum)
				// Wave 2: breaker open, CCL dispatch skipped.
				x.Allreduce(send, recvs[0], count, mpi.Float32, mpi.OpSum)
				x.MPI().Proc().Sleep(2 * time.Millisecond)
				// Waves 3-5 race through the elapsed cooldown concurrently.
				var reqs []*Request
				for i := range recvs {
					reqs = append(reqs, x.Iallreduce(send, recvs[i], count, mpi.Float32, mpi.OpSum))
				}
				for _, r := range reqs {
					x.Wait(r)
				}
				for i, recv := range recvs {
					if got := recv.Float32(0); got != 10 {
						t.Errorf("rank %d probe %d: sum = %v, want 10", x.Rank(), i, got)
					}
				}
			})
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	for i, rt := range rts {
		st := rt.Stats()
		if st.BreakerSkips != 4 {
			t.Errorf("runtime %d: BreakerSkips = %d, want 4 (wave 2)", i, st.BreakerSkips)
		}
		if st.CCLOps != 12 || st.MPIOps != 8 {
			t.Errorf("runtime %d: CCLOps=%d MPIOps=%d, want 12/8", i, st.CCLOps, st.MPIOps)
		}
	}
	// Exactly one transition per runtime and state: concurrent probe waves
	// must not re-trigger open->half_open, and only the first probe
	// success closes.
	for to, want := range map[string]float64{"open": nRuntimes, "half_open": nRuntimes, "closed": nRuntimes} {
		v, ok := reg.CounterValue("xccl_breaker_transitions_total", metrics.Labels{
			"backend": "nccl", "op": "allreduce", "to": to})
		if !ok || v != want {
			t.Errorf("breaker transitions to %s = %v (exists %v), want %v", to, v, ok, want)
		}
	}
}
