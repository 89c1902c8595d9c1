package dl

import (
	"runtime"
	"testing"
	"time"
)

// TestTrainReleasesWorld: a finished Train leaves no simulated process
// behind. The ccl layer's resident helpers and leader engines park
// between calls and would otherwise pin every rank's fusion arena and
// pipe slots for the life of the program.
func TestTrainReleasesWorld(t *testing.T) {
	model := &Model{Name: "release-mlp"}
	for i := 0; i < 8; i++ {
		model.Tensors = append(model.Tensors, Tensor{Name: "fc", Elems: 256 << 10})
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base, baseHeap := runtime.NumGoroutine(), heap()
	for _, persistent := range []bool{false, true} {
		if _, err := Train(Config{System: "thetagpu", Nodes: 1, BatchSize: 32, Steps: 1,
			Model: model, Engine: EngineXCCL, Persistent: persistent}); err != nil {
			t.Fatal(err)
		}
	}
	n := runtime.NumGoroutine()
	for i := 0; i < 100 && n > base; i++ {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Fatalf("%d goroutines left after Train, want %d", n, base)
	}
	// 8 ranks × an 8 MiB fusion arena alone would leave 64 MiB live.
	if grew := int64(heap()) - int64(baseHeap); grew > 8<<20 {
		t.Fatalf("live heap grew by %d MiB across finished worlds", grew>>20)
	}
}
