package topology

import (
	"math"
	"testing"
	"time"

	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

func TestBuildShape(t *testing.T) {
	k := sim.NewKernel()
	s := ThetaGPU(k, 4)
	if s.NumNodes() != 4 || s.DevicesPerNode() != 8 || s.NumDevices() != 32 {
		t.Fatalf("shape = %d nodes × %d = %d", s.NumNodes(), s.DevicesPerNode(), s.NumDevices())
	}
	for i, d := range s.Devices() {
		if d.ID != i {
			t.Fatalf("device %d has ID %d", i, d.ID)
		}
		if d.Node != i/8 || d.Local != i%8 {
			t.Fatalf("device %d placed at node %d local %d", i, d.Node, d.Local)
		}
	}
	for _, n := range s.Nodes {
		if n.Host == nil || n.Host.Kind != device.Host {
			t.Fatal("node missing host device")
		}
	}
}

func TestBuildInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0-node system")
		}
	}()
	Build(sim.NewKernel(), Config{NumNodes: 0, DevicesPerNode: 8})
}

func TestSameNodeAndLinkBetween(t *testing.T) {
	k := sim.NewKernel()
	s := ThetaGPU(k, 2)
	a, b, c := s.Device(0), s.Device(7), s.Device(8)
	if a.Node != b.Node || a.Node == c.Node {
		t.Fatalf("nodes of devices 0, 7, 8 = %d, %d, %d", a.Node, b.Node, c.Node)
	}
	if s.LinkBetween(a, b).Name != "NVLink3" {
		t.Fatalf("intra link = %s", s.LinkBetween(a, b).Name)
	}
	if s.LinkBetween(a, c).Name != "IB-HDR" {
		t.Fatalf("inter link = %s", s.LinkBetween(a, c).Name)
	}
}

func TestLinkTime(t *testing.T) {
	l := Link{Alpha: 2 * time.Microsecond, ChannelBW: 1e9, DirChannels: 4, TotalChannels: 4}
	if got := l.Time(0, 4); got != 2*time.Microsecond {
		t.Fatalf("zero-byte time = %v", got)
	}
	// 4e9 bytes at 4×1e9 B/s = 1s + alpha.
	if got := l.Time(4e9, 4); got != time.Second+2*time.Microsecond {
		t.Fatalf("time = %v", got)
	}
	// Channel counts clamp to [1, DirChannels].
	if l.Time(1e9, 99) != l.Time(1e9, 4) {
		t.Fatal("over-request not clamped")
	}
	if l.Time(1e9, 0) != l.Time(1e9, 1) {
		t.Fatal("zero channels not clamped to 1")
	}
}

// peakBW is a link's best single-transfer bandwidth in bytes/second: every
// channel one direction has.
func peakBW(l Link) float64 { return float64(l.DirChannels) * l.ChannelBW }

// The NVLink preset must reproduce the paper's NCCL 4 MB intra-node numbers:
// ~137 GB/s peak and wire time ≈ 31 µs for 4 MiB.
func TestNVLinkCalibration(t *testing.T) {
	peak := peakBW(NVLink3)
	if math.Abs(peak-137e9)/137e9 > 0.02 {
		t.Fatalf("NVLink peak = %.1f GB/s, want ≈137", peak/1e9)
	}
	wire := NVLink3.Time(4<<20, 12)
	if wire < 28*time.Microsecond || wire > 36*time.Microsecond {
		t.Fatalf("NVLink 4MiB wire time = %v, want ≈31µs", wire)
	}
}

// The RoCE preset must reproduce HCCL's ~3 GB/s intra-node bandwidth, which
// with HCCL's 270 µs launch overhead yields the paper's 1651 µs at 4 MB.
func TestRoCECalibration(t *testing.T) {
	peak := peakBW(RoCEGaudi)
	if math.Abs(peak-3.06e9)/3.06e9 > 0.05 {
		t.Fatalf("RoCE peak = %.2f GB/s, want ≈3.05", peak/1e9)
	}
	wire := RoCEGaudi.Time(4<<20, 3)
	if wire < 1300*time.Microsecond || wire > 1450*time.Microsecond {
		t.Fatalf("RoCE 4MiB wire time = %v, want ≈1375µs", wire)
	}
}

func TestPCIeCalibration(t *testing.T) {
	peak := peakBW(PCIe4MRI)
	if math.Abs(peak-6.36e9)/6.36e9 > 0.02 {
		t.Fatalf("PCIe peak = %.2f GB/s, want ≈6.36", peak/1e9)
	}
}

func TestPresets(t *testing.T) {
	k := sim.NewKernel()
	cases := []struct {
		name    string
		perNode int
		kind    device.Kind
	}{
		{"thetagpu", 8, device.NvidiaGPU},
		{"mri", 2, device.AMDGPU},
		{"voyager", 8, device.HabanaHPU},
	}
	for _, c := range cases {
		s, err := Preset(k, c.name, 2)
		if err != nil {
			t.Fatal(err)
		}
		if s.DevicesPerNode() != c.perNode {
			t.Errorf("%s: %d devices/node, want %d", c.name, s.DevicesPerNode(), c.perNode)
		}
		if s.Device(0).Kind != c.kind {
			t.Errorf("%s: kind %v, want %v", c.name, s.Device(0).Kind, c.kind)
		}
	}
	if _, err := Preset(k, "summit", 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	want := []struct {
		sys, acc string
		n        int
	}{
		{"ThetaGPU", "A100-SXM4-40GB", 8},
		{"MRI", "MI100-32GB", 2},
		{"Voyager", "Gaudi-32GB", 8},
	}
	for i, w := range want {
		if rows[i].System != w.sys || rows[i].Accelerator != w.acc || rows[i].PerNode != w.n {
			t.Errorf("row %d = %+v", i, rows[i])
		}
	}
	if rows[0].DeviceMem != "40GB" {
		t.Errorf("A100 mem = %s", rows[0].DeviceMem)
	}
}

// TestPartitionShardOfMatchesNodeRange: every node lies in the node range
// of the shard ShardOf names, for even and uneven splits alike.
func TestPartitionShardOfMatchesNodeRange(t *testing.T) {
	for nodes := 1; nodes <= 12; nodes++ {
		for shards := 1; shards <= nodes; shards++ {
			p := PartitionNodes(nodes, shards)
			for n := 0; n < nodes; n++ {
				s := p.ShardOf(n)
				lo, hi := p.NodeRange(s)
				if n < lo || n >= hi || p.LocalNode(n) != n-lo {
					t.Fatalf("%d nodes over %d shards: node %d maps to shard %d, which owns [%d, %d)",
						nodes, shards, n, s, lo, hi)
				}
			}
		}
	}
}
