package experiments

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// fig7Quick is Fig7 at quick scale, run once for the two tests that read
// it (TestFig7SeriesShape and TestGoldenVirtualTime/fig7): it is among
// the slowest exhibits.
var fig7Quick = sync.OnceValues(func() (*Figure, error) { return Fig7(Options{}) })

func TestIDsAreRunnable(t *testing.T) {
	t.Parallel()
	if len(IDs()) != 14 {
		t.Fatalf("IDs = %v", IDs())
	}
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTable1Output(t *testing.T) {
	t.Parallel()
	out := Table1()
	for _, want := range []string{"ThetaGPU", "MRI", "Voyager", "A100", "MI100", "Gaudi"} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig1aCrossoverReported(t *testing.T) {
	t.Parallel()
	f, err := Fig1a(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 2 {
		t.Fatalf("series = %d", len(f.Series))
	}
	if len(f.Notes) != 1 || !strings.Contains(f.Notes[0], "NCCL wins above") {
		t.Fatalf("notes = %v", f.Notes)
	}
}

func TestFig3NotesCarryCalibration(t *testing.T) {
	t.Parallel()
	f, err := Fig3(Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 4 backends × 3 metrics.
	if len(f.Series) != 12 {
		t.Fatalf("series = %d, want 12", len(f.Series))
	}
	if len(f.Notes) != 4 {
		t.Fatalf("notes = %d, want one per backend", len(f.Notes))
	}
}

func TestFormatRendersAllSeries(t *testing.T) {
	t.Parallel()
	f := &Figure{
		ID: "t", Title: "test", XLabel: "bytes", Metric: "latency",
		Series: []Series{
			{Name: "a", Points: []Point{{X: 8, Latency: 3 * time.Microsecond}}},
			{Name: "b", Points: []Point{{X: 8, Value: 42}}},
		},
		Notes: []string{"hello"},
	}
	out := Format(f)
	for _, want := range []string{"== t: test ==", "3.00us", "42", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("format missing %q:\n%s", want, out)
		}
	}
}

func TestFig7SeriesShape(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("application figure is slow")
	}
	f, err := fig7Quick()
	if err != nil {
		t.Fatal(err)
	}
	// 4 single-node engines + 3 multi-node engines.
	if len(f.Series) != 7 {
		t.Fatalf("series = %d, want 7", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Points) != 3 {
			t.Fatalf("series %s has %d points, want 3 batch sizes", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Value <= 0 {
				t.Fatalf("series %s has non-positive throughput", s.Name)
			}
		}
	}
}
