package experiments

import (
	"strings"
	"testing"

	"mpixccl/internal/metrics"
)

// The acceptance soak: 20 seeded schedules, every invariant holding —
// termination, bytewise-exact results, healed corruption, full-width
// recovery within the detection-latency bound. Short mode trims the
// schedule count, not the invariants.
func TestChaosSoak(t *testing.T) {
	t.Parallel()
	runs := 20
	if testing.Short() {
		runs = 6
	}
	reg := metrics.NewRegistry()
	out, err := RunChaos(0xc4a05, runs, reg)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "all invariants held") {
		t.Errorf("report missing the success line:\n%s", out)
	}
	if v, ok := reg.CounterValue("xccl_chaos_schedules_total",
		metrics.Labels{"outcome": "ok"}); !ok || v != float64(runs) {
		t.Errorf("ok schedules counted = %v (exists %v), want %d", v, ok, runs)
	}
}

// A tiny soak for the -race leg of check.sh: three schedules exercise one
// collective soak, one elastic recovery, and one network partition.
func TestChaosShort(t *testing.T) {
	t.Parallel()
	out, err := RunChaos(7, 3, nil)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
}

// Same seed, same report: the soak must be reproducible end to end.
func TestChaosDeterministic(t *testing.T) {
	t.Parallel()
	a, errA := RunChaos(42, 4, nil)
	b, errB := RunChaos(42, 4, nil)
	if errA != nil || errB != nil {
		t.Fatalf("soak errors: %v, %v\n%s", errA, errB, a)
	}
	if a != b {
		t.Errorf("reports differ between identical seeds:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// The chaos soak must never appear in the exhibit registry — it would
// perturb golden outputs.
func TestChaosNotAnExhibit(t *testing.T) {
	t.Parallel()
	for _, id := range IDs() {
		if strings.Contains(id, "chaos") {
			t.Errorf("chaos registered as exhibit %q", id)
		}
	}
}
