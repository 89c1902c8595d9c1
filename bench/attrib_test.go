package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"testing"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"mpixccl/internal/sim.(*Kernel).dispatch":                                       "sim",
		"mpixccl/internal/sim.(*Chan[go.shape.struct { mpixccl/internal/ccl.x }]).Recv": "sim",
		"mpixccl/internal/ccl.(*runCtx).runPlan":                                        "ccl",
		"mpixccl/internal/ccl/nccl.New":                                                 "ccl",
		"mpixccl/internal/ccl/comp.Search":                                              "comp",
		"mpixccl/internal/core.(*Comm).Allreduce.func1":                                 "core",
		"mpixccl/internal/trace.RecordMetrics":                                          "metrics",
		"mpixccl/internal/metrics.(*Counter).Add":                                       "metrics",
		"mpixccl/internal/topology.Preset":                                              "other",
		"main.runCollectives.func1":                                                     "bench",
		"runtime.memmove":                                                               "",
		"sync.(*Mutex).Lock":                                                            "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestChargeSyntheticStacks(t *testing.T) {
	stacks := [][]string{
		// A runtime leaf is charged to the repository frame that called it.
		{"runtime.memmove", "mpixccl/internal/fabric.(*Fabric).TryTransfer", "mpixccl/internal/ccl.send"},
		{"runtime.mallocgc", "runtime.makeslice", "mpixccl/internal/elem.Reduce", "mpixccl/internal/mpi.reduce"},
		// The innermost repository frame wins over outer ones.
		{"mpixccl/internal/sim.(*Proc).park", "mpixccl/internal/core.(*Comm).run"},
		// No repository frame at all: GC and scheduler work.
		{"runtime.gcBgMarkWorker", "runtime.goexit"},
		{},
		{"runtime.memclrNoHeapPointers", "main.fill"},
	}
	vals := []int64{10, 20, 30, 40, 5, 7}
	buckets, total := charge(stacks, vals)
	want := map[string]int64{"fabric": 10, "elem": 20, "sim": 30, "runtime": 45, "bench": 7}
	for l, v := range want {
		if buckets[l] != v {
			t.Errorf("bucket %s = %d, want %d", l, buckets[l], v)
		}
	}
	var sum int64
	for _, v := range buckets {
		sum += v
	}
	if total != 112 || sum != total {
		t.Errorf("buckets sum to %d, total %d, want both 112", sum, total)
	}
}

//go:noinline
func allocateForProfile() [][]byte {
	var keep [][]byte
	for i := 0; i < 64; i++ {
		keep = append(keep, make([]byte, 256<<10))
	}
	return keep
}

// TestAttributeRealProfile decodes a profile written by runtime/pprof, so
// the hand-written protobuf reader is checked against the real encoder.
func TestAttributeRealProfile(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	keep := allocateForProfile()
	runtime.GC() // publish the allocations to the profile
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		t.Fatal(err)
	}
	buckets, total, err := attribute(b.Bytes(), "alloc_space")
	if err != nil {
		t.Fatal(err)
	}
	if buckets["bench"] < int64(len(keep))*(256<<10) {
		t.Errorf("bench bucket %d B, want at least the %d B allocated", buckets["bench"], len(keep)*(256<<10))
	}
	var sum int64
	for _, v := range buckets {
		sum += v
	}
	if sum != total {
		t.Errorf("buckets sum to %d, total %d", sum, total)
	}
	if _, _, err := attribute(b.Bytes(), "no_such_value"); err == nil {
		t.Error("unknown value type accepted")
	}
	if _, _, err := attribute([]byte{0x0a, 0x05, 0x01}, "alloc_space"); err == nil {
		t.Error("truncated profile accepted")
	}
}
