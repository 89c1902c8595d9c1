package experiments

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden file pins the virtual-time results of every exhibit at Quick
// scale. It was generated from the seed simulation kernel (before the
// hot-path overhaul) and must never change under a pure performance
// optimization: wall-clock time may drop, virtual time may not move.
//
// Regenerate (only after an intentional model change) with:
//
//	go test ./internal/experiments -run TestGoldenVirtualTime -update-golden
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_quick.json from the current engine (model changes only)")

const goldenPath = "testdata/golden_quick.json"

// compiledSuffix marks a golden entry run with the collective compiler on
// (Options{Compile: true}). fig5 and fig6 carry the alltoall columns, and
// fig6 is the multi-node one, where the search picks phased plans.
const compiledSuffix = "-compile"

// goldenIDs is every golden entry: each exhibit, plus fig5 and fig6
// compiled.
func goldenIDs() []string {
	return append(IDs(), "fig5"+compiledSuffix, "fig6"+compiledSuffix)
}

// goldenVerifyIDs is the set checked on a `go test` run: every entry, or
// under -short only those that finish in seconds (fig6 either way,
// partition and the application exhibits fig7–fig10 are skipped).
func goldenVerifyIDs() []string {
	if testing.Short() {
		return []string{"table1", "fig1a", "fig1b", "fig3", "fig4", "fig5", "fig5" + compiledSuffix, "resilience", "elastic"}
	}
	return goldenIDs()
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden file missing (run with -update-golden to create): %v", err)
	}
	golden := map[string]string{}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("golden file corrupt: %v", err)
	}
	return golden
}

// quickExhibit is Run(id, Options{}) (Compile set for a compiled entry),
// with fig7 shared with TestFig7SeriesShape.
func quickExhibit(id string) (string, error) {
	if base, ok := strings.CutSuffix(id, compiledSuffix); ok {
		return Run(base, Options{Compile: true})
	}
	if id != "fig7" {
		return Run(id, Options{})
	}
	f, err := fig7Quick()
	if err != nil {
		return "", err
	}
	return Format(f), nil
}

// TestGoldenVirtualTime proves the optimized engine reproduces the seed's
// virtual-time results bit-for-bit: every exhibit's formatted output (which
// embeds each series' virtual latencies) must match the pinned snapshot.
func TestGoldenVirtualTime(t *testing.T) {
	if *updateGolden {
		golden := map[string]string{}
		for _, id := range goldenIDs() {
			out, err := quickExhibit(id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			golden[id] = out
		}
		data, err := json.MarshalIndent(golden, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten with %d exhibits", len(golden))
		return
	}
	golden := readGolden(t)
	for _, id := range goldenVerifyIDs() {
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			want, ok := golden[id]
			if !ok {
				t.Fatalf("golden file has no entry for %s", id)
			}
			got, err := quickExhibit(id)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("virtual-time results drifted from the seed golden.\n--- want ---\n%s\n--- got ---\n%s", want, got)
			}
		})
	}
}
