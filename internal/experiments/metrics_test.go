package experiments

import (
	"bytes"
	"strings"
	"testing"

	"mpixccl/internal/metrics"
)

// TestFig5MetricsParseBack is the acceptance check for the observability
// layer: rerunning Fig 5 with a registry must yield Prometheus text that
// parses back with per-op dispatch-path counters and latency histograms.
func TestFig5MetricsParseBack(t *testing.T) {
	t.Parallel()
	reg := metrics.NewRegistry()
	if _, err := Fig5(Options{Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	vals, err := metrics.ParseText(buf.Bytes())
	if err != nil {
		t.Fatalf("exporter emitted unparseable text: %v", err)
	}
	var mpiOps, cclOps, latSeries float64
	for key, v := range vals {
		switch {
		case strings.HasPrefix(key, `xccl_ops_total{`) && strings.Contains(key, `path="mpi"`):
			mpiOps += v
		case strings.HasPrefix(key, `xccl_ops_total{`) && strings.Contains(key, `path="ccl"`):
			cclOps += v
		case strings.HasPrefix(key, `xccl_op_latency_seconds_bucket{`) && strings.Contains(key, `le="+Inf"`):
			latSeries++
		}
	}
	if mpiOps == 0 || cclOps == 0 {
		t.Errorf("hybrid Fig 5 must exercise both paths: mpi ops = %v, ccl ops = %v", mpiOps, cclOps)
	}
	if latSeries == 0 {
		t.Error("no latency histogram series emitted")
	}
	// The hybrid stack's tuning table and the CCL launch counters must be
	// live through the whole stack, not just the dispatch layer.
	for _, prefix := range []string{"xccl_tuning_lookups_total{", "ccl_launches_total{", "mpi_sends_total{"} {
		found := false
		for key := range vals {
			if strings.HasPrefix(key, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s* series in Fig 5 output", prefix)
		}
	}
}
