package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestReportsEncodeDegenerateMetrics aggregates rounds whose metrics are
// all zero or missing, as idle layers on the scale workload are: the report
// and the last output line must still encode.
func TestReportsEncodeDegenerateMetrics(t *testing.T) {
	wl, _ := findWorkload("scale")
	idle := map[string]float64{"comp.cpu_pct": 0, "core.ccl_ops_per_op": 0}
	rounds := []roundResult{
		{Workload: wl.name, Attempted: 3, TimedS: 1, SliceRates: []float64{3, 3}},
		{Workload: wl.name, Traced: true, Attempted: 3, TimedS: 1, Layer: idle},
		{Workload: wl.name, Attempted: 3, TimedS: 1},
		{Workload: wl.name, Traced: true, Attempted: 3, TimedS: 1, Layer: idle},
	}
	for _, traced := range []bool{false, true} {
		rep := aggregate(wl, runConfig{seed: 1, traced: traced}, currentHost(), rounds)
		if _, err := json.Marshal(rep); err != nil {
			t.Errorf("traced=%v: report: %v", traced, err)
		}
		var b bytes.Buffer
		if err := printContract(&b, rep); err != nil {
			t.Errorf("traced=%v: last line: %v", traced, err)
		}
	}
}
