package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestResilienceFigureShape(t *testing.T) {
	t.Parallel()
	f, err := Resilience(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("series = %d, want clean + 2 faulted", len(f.Series))
	}
	var cleanSum, faultedSum time.Duration
	for i, s := range f.Series {
		// Quick sweep is 1KB..1MB doubling: 11 points per series.
		if len(s.Points) != 11 {
			t.Fatalf("series %s has %d points, want 11", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Latency <= 0 {
				t.Fatalf("series %s has non-positive latency at %d bytes", s.Name, p.X)
			}
			switch i {
			case 0:
				cleanSum += p.Latency
			case 1:
				faultedSum += p.Latency
			}
		}
	}
	// Faults may only slow the hybrid stack down, and boundedly so: retries
	// and the degradation window cost time, never a hang or a free lunch.
	if faultedSum < cleanSum {
		t.Errorf("faulted sweep (%v) faster than clean (%v)", faultedSum, cleanSum)
	}
	if faultedSum > 64*cleanSum {
		t.Errorf("faulted sweep (%v) unbounded vs clean (%v)", faultedSum, cleanSum)
	}
	if len(f.Notes) != 2 {
		t.Fatalf("notes = %v, want fired-counts + slowdown", f.Notes)
	}
	if !strings.Contains(f.Notes[1], "slowdown under faults") {
		t.Errorf("missing slowdown note: %v", f.Notes)
	}
}

// The scenario must be bit-for-bit reproducible: same seed, same virtual
// timings, same note text.
func TestResilienceIsDeterministic(t *testing.T) {
	t.Parallel()
	a, err := Resilience(Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Resilience(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reruns diverged:\n%v\nvs\n%v", a, b)
	}
}
