package msccl

import (
	"strings"
	"testing"

	"mpixccl/internal/ccl"
	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

const sampleSchedule = `
# two-rank exchange-and-reduce
algo swap allreduce ranks=2 chunks=2 min=8 max=4096
step
xfer 0 1 0 0 reduce
xfer 1 0 1 1 reduce
step
xfer 0 1 1 1 copy
xfer 1 0 0 0 copy
`

func TestParseAlgo(t *testing.T) {
	a, err := ParseAlgo(sampleSchedule)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "swap" || a.Collective != "allreduce" || a.Ranks != 2 || a.NChunks != 2 {
		t.Fatalf("header = %+v", a)
	}
	if a.MinBytes != 8 || a.MaxBytes != 4096 {
		t.Fatalf("window = [%d,%d]", a.MinBytes, a.MaxBytes)
	}
	if len(a.Steps) != 2 || len(a.Steps[0].Xfers) != 2 {
		t.Fatalf("steps = %+v", a.Steps)
	}
	if a.Steps[0].Xfers[0].Kind != ccl.ReduceOp || a.Steps[1].Xfers[0].Kind != ccl.Copy {
		t.Fatal("kinds wrong")
	}
}

func TestParseAlgoErrors(t *testing.T) {
	cases := map[string]string{
		"no header":        "step\nxfer 0 1 0 0 copy\n",
		"xfer before step": "algo a allreduce ranks=2 chunks=1\nxfer 0 1 0 0 copy\n",
		"bad kind":         "algo a allreduce ranks=2 chunks=1\nstep\nxfer 0 1 0 0 smear\n",
		"bad attr":         "algo a allreduce ranks=two chunks=1\n",
		"unknown attr":     "algo a allreduce ranks=2 chunks=1 colour=3\n",
		"negative min":     "algo a allreduce ranks=2 chunks=1 min=-1\n",
		"negative max":     "algo a allreduce ranks=2 chunks=1 max=-4096\n",
		"bad directive":    "algo a allreduce ranks=2 chunks=1\nfrobnicate\n",
		"short xfer":       "algo a allreduce ranks=2 chunks=1\nstep\nxfer 0 1 0\n",
		"dup header":       "algo a allreduce ranks=2 chunks=1\nalgo b allreduce ranks=2 chunks=1\n",
		"invalid endpoint": "algo a allreduce ranks=2 chunks=1\nstep\nxfer 0 9 0 0 copy\n",
		"empty":            "",
	}
	for name, text := range cases {
		if _, err := ParseAlgo(text); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFormatAlgoRoundTrip(t *testing.T) {
	orig := ccl.AllPairsAllReduce(4, 256, 1<<20)
	text := FormatAlgo(orig)
	back, err := ParseAlgo(text)
	if err != nil {
		t.Fatalf("round trip parse: %v\n%s", err, text)
	}
	if FormatAlgo(back) != text {
		t.Fatal("round trip not stable")
	}
	if back.Ranks != orig.Ranks || len(back.Steps) != len(orig.Steps) {
		t.Fatal("round trip lost structure")
	}
}

func TestStats(t *testing.T) {
	out := Stats(ccl.AllPairsAllReduce(4, 0, 0))
	if !strings.Contains(out, "2 steps, 24 transfers") {
		t.Fatalf("stats = %q", out)
	}
	if !strings.Contains(out, "rank 0 sends 6 chunks") {
		t.Fatalf("stats = %q", out)
	}
}

// The generated ring schedule must produce identical results to the
// built-in ring implementation (interpreter validation).
func TestRingScheduleMatchesBuiltin(t *testing.T) {
	const n = 6
	const count = 1200 // divisible into 6 chunks of 200
	run := func(algo *ccl.Algo) []float32 {
		k := sim.NewKernel()
		sys := topology.ThetaGPU(k, 1)
		fab := fabric.New(k, sys)
		comms, err := NewPlain(fab, sys.Devices()[:n])
		if err != nil {
			t.Fatal(err)
		}
		if algo != nil {
			if err := comms[0].RegisterAlgo(algo); err != nil {
				t.Fatal(err)
			}
		}
		out := make([]float32, n)
		err = ccl.Run(comms, func(cc *ccl.Comm, s *device.Stream, p *sim.Proc) {
			r := cc.Rank()
			send := cc.Device().MustMalloc(count * 4)
			recv := cc.Device().MustMalloc(count * 4)
			for i := 0; i < count; i++ {
				send.SetFloat32(i, float32(r+1)*float32(i%13))
			}
			if err := cc.AllReduce(send, recv, count, ccl.Float32, ccl.Sum, s); err != nil {
				t.Errorf("allreduce: %v", err)
			}
			s.Synchronize(p)
			out[r] = recv.Float32(777)
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	builtin := run(nil)
	ring := run(RingAllReduce(n, 1, 1<<30))
	for r := range builtin {
		if builtin[r] != ring[r] {
			t.Fatalf("rank %d: builtin %v != ring schedule %v", r, builtin[r], ring[r])
		}
	}
}

// A parsed schedule must execute correctly end to end.
func TestParsedScheduleExecutes(t *testing.T) {
	a, err := ParseAlgo(sampleSchedule)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.NewKernel()
	sys := topology.ThetaGPU(k, 1)
	fab := fabric.New(k, sys)
	comms, err := NewPlain(fab, sys.Devices()[:2])
	if err != nil {
		t.Fatal(err)
	}
	if err := comms[0].RegisterAlgo(a); err != nil {
		t.Fatal(err)
	}
	const count = 512 // 2 KB: inside the window
	results := make([]float32, 2)
	err = ccl.Run(comms, func(cc *ccl.Comm, s *device.Stream, p *sim.Proc) {
		r := cc.Rank()
		send := cc.Device().MustMalloc(count * 4)
		recv := cc.Device().MustMalloc(count * 4)
		send.FillFloat32(float32(r + 1))
		if err := cc.AllReduce(send, recv, count, ccl.Float32, ccl.Sum, s); err != nil {
			t.Errorf("allreduce: %v", err)
		}
		s.Synchronize(p)
		results[r] = recv.Float32(100)
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range results {
		if v != 3 {
			t.Fatalf("rank %d = %v, want 3", r, v)
		}
	}
}
