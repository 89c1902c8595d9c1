package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkDoc is BENCHMARK.json, decoded strictly: an unknown key fails.
type benchmarkDoc struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesTables keeps the repository's BENCHMARK.json in
// step with the workloads and metrics this program reports, and within the
// limits the file's readers enforce.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc benchmarkDoc
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(data))
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	seen := map[string]bool{}
	checkName := func(name string) {
		if !nameRe.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d = %+v, program has %q: %q", i, w, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}

	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, program has %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		checkName(m.Name)
		want := endToEnd[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better || m.Bound != want.bound {
			t.Errorf("end_to_end[%d] = %+v, program has %s %s %s %v", i, m, want.name, want.unit, want.better, want.bound)
		}
		if !unitRe.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: unit %q bound %v", m.Name, m.Unit, m.Bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not an end-to-end metric")
	}

	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, program has %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		checkName(m.Name)
		want := perLayer[i]
		if m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer[%d] = %+v, program has %s %s %s", i, m, want.name, want.unit, want.better)
		}
		if !unitRe.MatchString(m.Unit) {
			t.Errorf("per_layer %s: unit %q", m.Name, m.Unit)
		}
	}
}
