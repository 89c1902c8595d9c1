package world

import (
	"testing"

	"mpixccl/internal/sim/simtest"
)

// TestMain runs the suite under the leak gate: every world a test builds
// must be released when it finishes.
func TestMain(m *testing.M) { simtest.Main(m) }
