package dl

import (
	"bytes"
	"strings"
	"testing"

	"mpixccl/internal/core"
	"mpixccl/internal/fault"
	"mpixccl/internal/metrics"
)

func TestResNet50Inventory(t *testing.T) {
	m := ResNet50()
	params := m.Params()
	// Canonical ResNet-50 has ≈25.6M parameters.
	if params < 25_000_000 || params > 26_200_000 {
		t.Fatalf("params = %d, want ≈25.6M", params)
	}
	if len(m.Tensors) < 150 || len(m.Tensors) > 175 {
		t.Fatalf("tensor count = %d, want ≈161", len(m.Tensors))
	}
	// Backprop order: the classifier gradients come first.
	if m.Tensors[0].Name != "fc/bias" {
		t.Fatalf("first tensor = %s, want fc/bias", m.Tensors[0].Name)
	}
	if m.Tensors[len(m.Tensors)-1].Name != "conv1/kernel" {
		t.Fatalf("last tensor = %s, want conv1/kernel", m.Tensors[len(m.Tensors)-1].Name)
	}
}

func TestFuseBuckets(t *testing.T) {
	tensors := []Tensor{{"a", 100}, {"b", 100}, {"c", 300}, {"d", 50}}
	buckets := FuseBuckets(tensors, 900) // bytes: 400,400,1200,200
	if len(buckets) != 3 {
		t.Fatalf("buckets = %d, want 3", len(buckets))
	}
	if len(buckets[0].Tensors) != 2 || buckets[0].Bytes != 800 {
		t.Fatalf("bucket 0 = %+v", buckets[0])
	}
	if len(buckets[1].Tensors) != 1 || buckets[1].Bytes != 1200 {
		t.Fatalf("oversized tensor should travel alone: %+v", buckets[1])
	}
	if buckets[2].Bytes != 200 {
		t.Fatalf("bucket 2 = %+v", buckets[2])
	}
	// Every tensor appears exactly once.
	total := 0
	for _, b := range buckets {
		total += len(b.Tensors)
	}
	if total != len(tensors) {
		t.Fatalf("fused %d tensors, want %d", total, len(tensors))
	}
}

func TestFuseBucketsDegenerate(t *testing.T) {
	if got := FuseBuckets(nil, 1024); len(got) != 0 {
		t.Fatal("empty tensor list should fuse to nothing")
	}
	buckets := FuseBuckets([]Tensor{{"x", 10}}, 0)
	if len(buckets) != 1 {
		t.Fatal("non-positive fusion threshold should still work")
	}
}

// Fig 7a shape: on one ThetaGPU node the proposed design beats Horovod's
// native NCCL integration by ≈20% at batch 32, and the gap narrows at 128.
func TestFig7aShapeXCCLBeatsPureNCCL(t *testing.T) {
	run := func(engine Engine, bs int) float64 {
		rep, err := Train(Config{System: "thetagpu", Nodes: 1, BatchSize: bs, Steps: 1, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		return rep.ImgPerSec
	}
	x32, n32 := run(EngineXCCL, 32), run(EnginePureCCL, 32)
	ratio32 := x32 / n32
	if ratio32 < 1.08 || ratio32 > 1.35 {
		t.Errorf("bs32 xccl/nccl = %.2f (%.0f vs %.0f), want ≈1.2", ratio32, x32, n32)
	}
	// Absolute throughputs in the paper's range (4850 / 4050 img/s).
	if x32 < 4300 || x32 > 5400 {
		t.Errorf("xccl bs32 = %.0f img/s, want ≈4850", x32)
	}
	if n32 < 3600 || n32 > 4600 {
		t.Errorf("pure nccl bs32 = %.0f img/s, want ≈4050", n32)
	}
	x128, n128 := run(EngineXCCL, 128), run(EnginePureCCL, 128)
	ratio128 := x128 / n128
	if ratio128 >= ratio32 {
		t.Errorf("gap should narrow with batch size: bs32 %.2f, bs128 %.2f", ratio32, ratio128)
	}
	if ratio128 < 1.0 {
		t.Errorf("xccl fell behind pure NCCL at bs128: %.2f", ratio128)
	}
}

// Fig 7a baselines: Open MPI + UCX trails the proposed design by ≈44% at
// batch 128, UCC by ≈28%.
func TestFig7aBaselineGaps(t *testing.T) {
	run := func(engine Engine) float64 {
		rep, err := Train(Config{System: "thetagpu", Nodes: 1, BatchSize: 128, Steps: 1, Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		return rep.ImgPerSec
	}
	x := run(EngineXCCL)
	ucx := run(EngineOpenMPI)
	ucc := run(EngineUCC)
	ucxBelow := 1 - ucx/x
	uccBelow := 1 - ucc/x
	if ucxBelow < 0.35 || ucxBelow > 0.52 {
		t.Errorf("UCX below xccl by %.0f%%, want ≈44%% (%.0f vs %.0f)", ucxBelow*100, ucx, x)
	}
	if uccBelow < 0.18 || uccBelow > 0.38 {
		t.Errorf("UCC below xccl by %.0f%%, want ≈28%% (%.0f vs %.0f)", uccBelow*100, ucc, x)
	}
	if ucc <= ucx {
		t.Errorf("single-node UCC (%.0f) should beat plain UCX (%.0f)", ucc, ucx)
	}
}

// Fig 8 shape: on multi-node MRI the hybrid design beats Horovod-over-RCCL
// by ≈20–25%.
func TestFig8ShapeAMD(t *testing.T) {
	run := func(engine Engine, nodes, bs int) float64 {
		rep, err := Train(Config{System: "mri", Nodes: nodes, BatchSize: bs, Steps: 1,
			Engine: engine, Backend: core.RCCL})
		if err != nil {
			t.Fatal(err)
		}
		return rep.ImgPerSec
	}
	x := run(EngineXCCL, 4, 64) // 4 nodes × 2 GPUs = 8 GPUs
	r := run(EnginePureCCL, 4, 64)
	ratio := x / r
	if ratio < 1.12 || ratio > 1.45 {
		t.Errorf("8-GPU xccl/rccl = %.2f (%.0f vs %.0f), want ≈1.25", ratio, x, r)
	}
	if x < 2700 || x > 3700 {
		t.Errorf("xccl mri bs64 = %.0f img/s, want ≈3192", x)
	}
}

// Fig 9 shape: on Voyager the proposed design matches pure HCCL within a
// few percent (the layer's overhead is negligible; §4.4).
func TestFig9ShapeHabana(t *testing.T) {
	run := func(engine Engine) float64 {
		rep, err := Train(Config{System: "voyager", Nodes: 1, BatchSize: 128, Steps: 1,
			Engine: engine, Backend: core.HCCL})
		if err != nil {
			t.Fatal(err)
		}
		return rep.ImgPerSec
	}
	x := run(EngineXCCL)
	h := run(EnginePureCCL)
	ratio := x / h
	if ratio < 0.97 || ratio > 1.16 {
		t.Errorf("voyager xccl/hccl = %.2f (%.0f vs %.0f), want ≈1.04", ratio, x, h)
	}
	if x < 4600 || x > 6100 {
		t.Errorf("xccl voyager bs128 = %.0f img/s, want ≈5139", x)
	}
}

// Fig 10 shape: MSCCL-backed training mirrors the NCCL trend on 2 nodes.
func TestFig10ShapeMSCCL(t *testing.T) {
	rep, err := Train(Config{System: "thetagpu", Nodes: 2, BatchSize: 128, Steps: 1,
		Engine: EngineXCCL, Backend: core.MSCCL})
	if err != nil {
		t.Fatal(err)
	}
	// 16 GPUs; paper reports 12300 img/s.
	if rep.ImgPerSec < 9500 || rep.ImgPerSec > 15500 {
		t.Errorf("msccl 2-node bs128 = %.0f img/s, want ≈12300", rep.ImgPerSec)
	}
}

func TestThroughputScalesWithBatch(t *testing.T) {
	var prev float64
	for _, bs := range []int{32, 64, 128} {
		rep, err := Train(Config{System: "thetagpu", Nodes: 1, BatchSize: bs, Steps: 1, Engine: EngineXCCL})
		if err != nil {
			t.Fatal(err)
		}
		if rep.ImgPerSec <= prev {
			t.Fatalf("throughput not increasing with batch: bs%d = %.0f after %.0f", bs, rep.ImgPerSec, prev)
		}
		prev = rep.ImgPerSec
	}
}

func TestUnknownEngine(t *testing.T) {
	if _, err := Train(Config{Engine: "nope"}); err == nil {
		t.Fatal("unknown engine accepted")
	}
}

func TestUnknownSystem(t *testing.T) {
	if _, err := Train(Config{System: "summit"}); err == nil {
		t.Fatal("unknown system accepted")
	}
}

var engines = []Engine{EngineXCCL, EnginePureCCL, EngineOpenMPI, EngineUCC}

// A rank count above the device count or below zero is an error on every
// engine, not a panic.
func TestTrainRankCount(t *testing.T) {
	for _, eng := range engines {
		for _, ranks := range []int{100, 9, -3} {
			if _, err := Train(Config{Ranks: ranks, Engine: eng, Model: tinyModel(), Steps: 1}); err == nil {
				t.Errorf("%s: %d ranks on 8 devices accepted", eng, ranks)
			}
		}
	}
}

// Config.Faults reaches the fabric on every engine: a whole-run intra-node
// degradation shows up in the fabric's degraded-transfer counter.
func TestTrainAttachesFaults(t *testing.T) {
	for _, eng := range engines {
		reg := metrics.NewRegistry()
		plan := fault.NewPlan(1).AddLinkRule(fault.LinkRule{Name: "slow", Link: "intra", BWScale: 0.5})
		if _, err := Train(Config{Engine: eng, Model: tinyModel(), Steps: 1,
			Faults: plan, Metrics: reg}); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		var out bytes.Buffer
		if err := reg.WritePrometheus(&out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "xccl_degraded_transfers_total{") {
			t.Errorf("%s: no degraded transfers reported:\n%s", eng, out.String())
		}
	}
}
