package experiments

import (
	"testing"

	"mpixccl/internal/sim/simtest"
)

// TestMain runs the suite under the leak gate: every world a test builds
// must be closed.
func TestMain(m *testing.M) { simtest.Main(m) }
