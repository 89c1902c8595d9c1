package oneccl_test

import (
	"testing"

	"mpixccl/internal/ccl"
	"mpixccl/internal/ccl/oneccl"
	"mpixccl/internal/core"
	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

func TestConfigPersonality(t *testing.T) {
	cfg := oneccl.Config()
	if !cfg.SupportsKind(device.IntelGPU) || cfg.SupportsKind(device.NvidiaGPU) {
		t.Error("oneCCL must drive Intel GPUs only")
	}
	if !cfg.Datatypes[ccl.Float64] || !cfg.Datatypes[ccl.Float16] {
		t.Error("oneCCL should carry the full datatype matrix")
	}
}

func TestAllReduceOnAurora(t *testing.T) {
	k := sim.NewKernel()
	sys := topology.Aurora(k, 1)
	if sys.DevicesPerNode() != 6 {
		t.Fatalf("aurora has %d devices/node, want 6", sys.DevicesPerNode())
	}
	fab := fabric.New(k, sys)
	comms, err := oneccl.New(fab, sys.Devices())
	if err != nil {
		t.Fatal(err)
	}
	const count = 4096
	bar := sim.NewBarrier(k, len(comms))
	err = ccl.Run(comms, func(cc *ccl.Comm, s *device.Stream, p *sim.Proc) {
		send := cc.Device().MustMalloc(count * 4)
		recv := cc.Device().MustMalloc(count * 4)
		send.FillFloat32(float32(cc.Rank() + 1))
		bar.Wait(p)
		if err := cc.AllReduce(send, recv, count, ccl.Float32, ccl.Sum, s); err != nil {
			t.Errorf("allreduce: %v", err)
		}
		s.Synchronize(p)
		if recv.Float32(77) != 21 { // 1+2+…+6
			t.Errorf("sum = %v, want 21", recv.Float32(77))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The full xCCL layer must auto-select oneCCL on Intel systems and run the
// hybrid dispatch end to end — the paper's future-work scenario.
func TestXCCLLayerAutoSelectsOneCCL(t *testing.T) {
	k := sim.NewKernel()
	sys := topology.Aurora(k, 2)
	fab := fabric.New(k, sys)
	job := mpi.NewJobOnSystem(fab, mpi.MVAPICHProfile(), sys, 12)
	rt, err := core.NewRuntime(job, core.Options{Backend: core.Auto, Mode: core.Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Backend() != core.OneCCL {
		t.Fatalf("auto backend = %s, want oneccl", rt.Backend())
	}
	err = rt.Run(func(x *core.Comm) {
		small := x.Device().MustMalloc(1 << 10)
		large := x.Device().MustMalloc(4 << 20)
		out := x.Device().MustMalloc(4 << 20)
		small.FillFloat32(1)
		large.FillFloat32(1)
		x.Allreduce(small, out, 256, mpi.Float32, mpi.OpSum)
		if out.Float32(0) != 12 {
			t.Errorf("small sum = %v", out.Float32(0))
		}
		x.Allreduce(large, out, 1<<20, mpi.Float32, mpi.OpSum)
		if out.Float32(999) != 12 {
			t.Errorf("large sum = %v", out.Float32(999))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rt.Stats()
	if st.MPIOps == 0 || st.CCLOps == 0 {
		t.Errorf("hybrid dispatch on aurora: %+v", st)
	}
}
