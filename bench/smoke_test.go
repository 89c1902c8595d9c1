package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The parent re-executes its own binary for every round. Under go test that
// binary is the test binary, so it runs main instead of the tests when this
// variable is set.
const runMainEnv = "MPIXCCL_BENCH_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmokeEveryWorkload runs one shortest round of every workload through
// the child-process path and checks that every op was correct and every
// end-to-end metric was reported.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a child process per workload")
	}
	t.Setenv(runMainEnv, "1")
	for _, w := range workloads {
		var out bytes.Buffer
		if err := run([]workload{w}, runConfig{seed: 1, seconds: 0.001, rounds: 1}, "", &out); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%s: last line: %v\n%s", w.name, err, out.String())
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", w.name, res.Correct, res.Attempted, res.Failed, out.String())
		}
		for _, m := range endToEnd {
			got, ok := res.Metrics[m.name]
			if !ok || got.Unit != m.unit || got.Value <= 0 {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", w.name, m.name, got, m.unit)
			}
		}
	}
}
