package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// TestWorldReleasedAfterRun pins that a world's runner releases it: built
// the way the bench builds one (NewJobOnSystem + NewRuntime + Run, with no
// Close at the call site), a pure-CCL world on ccl.Run, and worlds that end
// in a *sim.DeadlockError or a *sim.PanicError all leave the goroutine
// count where it was before the world was built. Each world first runs an
// allreduce on both paths, so the ranks' resident progress processes, CCL
// workers and streams exist and park when the ranks are done.
func TestWorldReleasedAfterRun(t *testing.T) {
	const n = 8
	large := 1 << 18 // 1 MiB of Float32: the CCL path
	allreduce := func(x *Comm) {
		dev := x.Device()
		small, big := dev.MustMalloc(64), dev.MustMalloc(int64(large)*4)
		x.Allreduce(small, small, 16, mpi.Float32, mpi.OpSum)
		x.Allreduce(big, big, large, mpi.Float32, mpi.OpSum)
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"runtime", func(t *testing.T) {
			rt := newRuntime(t, "thetagpu", n, Options{Backend: Auto, Mode: Hybrid})
			if err := rt.Run(allreduce); err != nil {
				t.Fatal(err)
			}
		}},
		{"ccl", func(t *testing.T) {
			k := sim.NewKernel()
			sys := topology.ThetaGPU(k, 1)
			comms, err := NewBackendComms(NCCL, fabric.New(k, sys), sys.Devices())
			if err != nil {
				t.Fatal(err)
			}
			err = ccl.Run(comms, func(cc *ccl.Comm, s *device.Stream, p *sim.Proc) {
				buf := cc.Device().MustMalloc(int64(large) * 4)
				if err := cc.AllReduce(buf, buf, large, ccl.Float32, ccl.Sum, s); err != nil {
					t.Error(err)
				}
				s.Synchronize(p)
			})
			if err != nil {
				t.Fatal(err)
			}
		}},
		{"deadlock", func(t *testing.T) {
			rt := newRuntime(t, "thetagpu", n, Options{Backend: Auto, Mode: Hybrid})
			never := sim.NewEvent(rt.Job().Fabric().Kernel())
			err := rt.Run(func(x *Comm) {
				allreduce(x)
				if x.Rank() == 0 {
					never.Wait(x.MPI().Proc())
				}
			})
			var dl *sim.DeadlockError
			if !errors.As(err, &dl) {
				t.Fatalf("Run = %v, want *sim.DeadlockError", err)
			}
		}},
		{"panic", func(t *testing.T) {
			rt := newRuntime(t, "thetagpu", n, Options{Backend: Auto, Mode: Hybrid})
			defer func() {
				if _, ok := recover().(*sim.PanicError); !ok {
					t.Fatal("Run did not re-panic a *sim.PanicError")
				}
			}()
			rt.Run(func(x *Comm) {
				allreduce(x)
				if x.Rank() == n-1 {
					panic("rank failed")
				}
			})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			tc.run(t)
			for i := 0; runtime.NumGoroutine() > before; i++ {
				if i == 100 {
					t.Fatalf("%d goroutines after Run, %d before the world was built", runtime.NumGoroutine(), before)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
