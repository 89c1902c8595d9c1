package msccl

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

func TestConfigEmbedsLegacyNCCL(t *testing.T) {
	cfg := Config()
	if cfg.Launch != 28*time.Microsecond {
		t.Errorf("launch = %v, want 28µs (paper §4.2)", cfg.Launch)
	}
	if cfg.Channels != 10 {
		t.Errorf("channels = %d, want the NCCL 2.12 budget of 10", cfg.Channels)
	}
	if BackendVersion != "2.12.12" {
		t.Errorf("backend version = %s, want 2.12.12", BackendVersion)
	}
}

// allreduce runs one float32 sum allreduce of count elements over the first
// n devices of a thetagpu node, on communicators built by mk with algo (if
// any) registered. Rank r contributes (r+1)·(i%13) at element i. It returns
// every rank's recv bytes and the latest rank's completion time.
func allreduce(t *testing.T, mk func(*fabric.Fabric, []*device.Device) ([]*ccl.Comm, error),
	algo *ccl.Algo, n, count int) ([][]byte, time.Duration) {
	t.Helper()
	k := sim.NewKernel()
	sys := topology.ThetaGPU(k, 1)
	fab := fabric.New(k, sys)
	comms, err := mk(fab, sys.Devices()[:n])
	if err != nil {
		t.Fatal(err)
	}
	if algo != nil {
		if err := comms[0].RegisterAlgo(algo); err != nil {
			t.Fatal(err)
		}
	}
	out := make([][]byte, n)
	var end time.Duration
	err = ccl.Run(comms, func(cc *ccl.Comm, s *device.Stream, p *sim.Proc) {
		r := cc.Rank()
		send := cc.Device().MustMalloc(int64(count) * 4)
		recv := cc.Device().MustMalloc(int64(count) * 4)
		for i := 0; i < count; i++ {
			send.SetFloat32(i, float32(r+1)*float32(i%13))
		}
		if err := cc.AllReduce(send, recv, count, ccl.Float32, ccl.Sum, s); err != nil {
			t.Errorf("allreduce: %v", err)
		}
		s.Synchronize(p)
		out[r] = bytes.Clone(recv.Bytes())
		end = max(end, p.Now())
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, end
}

// New registers allpairs for the medium window only: inside it an 8-rank
// allreduce runs the custom schedule (same bytes as the embedded NCCL, a
// different completion time), outside it the built-in one (same time).
func TestNewRegistersAllpairs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		count  int
		custom bool
	}{
		{"32KiB", 8 << 10, true},
		{"1MiB", 256 << 10, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			custom, customEnd := allreduce(t, New, nil, 8, tc.count)
			plain, plainEnd := allreduce(t, NewPlain, nil, 8, tc.count)
			for r := range plain {
				if !bytes.Equal(custom[r], plain[r]) {
					t.Fatalf("rank %d: New and NewPlain results differ", r)
				}
			}
			if tc.custom && customEnd == plainEnd {
				t.Errorf("New completes at %v like NewPlain: allpairs did not run", customEnd)
			}
			if !tc.custom && customEnd != plainEnd {
				t.Errorf("New completes at %v, NewPlain at %v: allpairs ran outside its window", customEnd, plainEnd)
			}
		})
	}
}

// A one-rank communicator from New behaves as NewPlain's: its allreduce
// copies send to recv at the same modeled time.
func TestSingleDeviceCommHasNoAlgo(t *testing.T) {
	custom, customEnd := allreduce(t, New, nil, 1, 1024)
	plain, plainEnd := allreduce(t, NewPlain, nil, 1, 1024)
	if !bytes.Equal(custom[0], plain[0]) || customEnd != plainEnd {
		t.Fatalf("New: %v, NewPlain: %v (results equal: %v)", customEnd, plainEnd, bytes.Equal(custom[0], plain[0]))
	}
}

// ringAllReduce is a ring allreduce written as an explicit schedule: n−1
// reduce-scatter steps followed by n−1 allgather steps, one chunk per rank.
func ringAllReduce(n int, minBytes, maxBytes int64) *ccl.Algo {
	a := &ccl.Algo{Name: "ring", Ranks: n, NChunks: n, MinBytes: minBytes, MaxBytes: maxBytes}
	for step := 0; step < n-1; step++ { // reduce-scatter
		var s ccl.Step
		for r := 0; r < n; r++ {
			src := (r - step - 1 + 2*n) % n
			s.Xfers = append(s.Xfers, ccl.ChunkXfer{
				From: r, To: (r + 1) % n, SrcChunk: src, DstChunk: src, Kind: ccl.ReduceOp,
			})
		}
		a.Steps = append(a.Steps, s)
	}
	for step := 0; step < n-1; step++ { // allgather
		var s ccl.Step
		for r := 0; r < n; r++ {
			src := (r - step + n) % n
			s.Xfers = append(s.Xfers, ccl.ChunkXfer{
				From: r, To: (r + 1) % n, SrcChunk: src, DstChunk: src, Kind: ccl.Copy,
			})
		}
		a.Steps = append(a.Steps, s)
	}
	return a
}

// A ring allreduce written as a schedule must produce the built-in ring's
// bytes on every rank (interpreter validation).
func TestRingScheduleMatchesBuiltin(t *testing.T) {
	const n = 6
	const count = 1200 // divisible into 6 chunks of 200
	builtin, _ := allreduce(t, NewPlain, nil, n, count)
	ring, _ := allreduce(t, NewPlain, ringAllReduce(n, 1, 1<<30), n, count)
	for r := range builtin {
		for i := 0; i < count; i++ {
			b := math.Float32frombits(binary.LittleEndian.Uint32(builtin[r][4*i:]))
			g := math.Float32frombits(binary.LittleEndian.Uint32(ring[r][4*i:]))
			if b != g {
				t.Fatalf("rank %d element %d: builtin %v != ring schedule %v", r, i, b, g)
			}
		}
	}
}
