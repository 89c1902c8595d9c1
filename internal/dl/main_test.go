package dl

import (
	"os"
	"runtime/debug"
	"testing"

	"mpixccl/internal/sim/simtest"
)

// testMemoryLimit is a soft heap cap for this package's tests. The VGG-16
// run in TestHybridWinVariesByModel keeps ~4 GB live (its 411 MB fc6
// bucket is one in-place gradient buffer per rank, ×8 ranks), and at the
// default GOGC the heap may grow to twice that before the next collection
// — more than an 8 GB host has while another package's tests run beside
// it. The cap sits just above that live heap, so the collector runs before
// the heap passes it without collecting continuously; tests whose heap
// stays below it never notice. GOMEMLIMIT overrides.
const testMemoryLimit = 5 << 30

// TestMain applies the memory cap, then runs the suite under the leak gate.
func TestMain(m *testing.M) {
	if os.Getenv("GOMEMLIMIT") == "" {
		debug.SetMemoryLimit(testMemoryLimit)
	}
	simtest.Main(m)
}
