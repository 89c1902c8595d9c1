package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareCmd implements `bench compare base.jsonl new.jsonl`: both files
// hold the reports that -out appends, one per workload per run. Run i of
// a workload in one file is paired with run i in the other, so record the
// two sides alternately. Only untraced reports are compared.
func compareCmd(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare base.jsonl new.jsonl")
	}
	base, err := readReports(args[0])
	if err != nil {
		return err
	}
	cand, err := readReports(args[1])
	if err != nil {
		return err
	}
	var names []string
	for name := range base {
		if _, ok := cand[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return fmt.Errorf("no workload has untraced runs in both files")
	}
	fmt.Fprintf(w, "%-16s %-16s %24s %24s %8s %6s  %s\n",
		"workload", "metric", "base median [Q1 Q3]", "new median [Q1 Q3]", "change", "wins", "verdict")
	for _, name := range names {
		for _, m := range endToEnd {
			c := comparePaired(m, values(base[name], m.name), values(cand[name], m.name))
			fmt.Fprintf(w, "%-16s %-16s %24s %24s %+7.1f%% %6s  %s\n", name, m.name,
				fmtSummary(c.base), fmtSummary(c.cand), 100*c.change, fmt.Sprintf("%d/%d", c.wins, c.pairs), c.verdict)
		}
	}
	return nil
}

func readReports(path string) (map[string][]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

func values(rs []report, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		out = append(out, r.Metrics[metric])
	}
	return out
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g %.4g]", s.Median, s.Q1, s.Q3)
}

// comparison is one (workload, metric) row.
type comparison struct {
	base, cand  summary
	change      float64 // relative change of the median, signed as measured
	wins, pairs int
	verdict     string
}

// minPairs is the fewest alternating pairs a claimed gain may rest on.
const minPairs = 10

// comparePaired applies the benchmark's rule to the paired runs of one
// metric, first match wins:
//
//   - better: at least minPairs pairs, the new side wins at least 9/10 of
//     them (ties count for neither), and the medians differ in its favour
//     by more than the base runs' IQR;
//   - unresolved: the base runs spread wider than the bound, unless every
//     new run beats every base run;
//   - worse: the new median is worse than the base median by more than the
//     metric's bound;
//   - same: none of these.
func comparePaired(m metricDef, base, cand []float64) comparison {
	c := comparison{base: summarize(base), cand: summarize(cand)}
	c.pairs = len(base)
	if len(cand) < c.pairs {
		c.pairs = len(cand)
	}
	better := func(a, b float64) bool { // a is better than b
		if m.better == "higher" {
			return a > b
		}
		return a < b
	}
	for i := 0; i < c.pairs; i++ {
		if better(cand[i], base[i]) {
			c.wins++
		}
	}
	if c.base.Median != 0 {
		c.change = (c.cand.Median - c.base.Median) / c.base.Median
	}
	dominates := len(base) > 0 && len(cand) > 0
	for _, n := range cand {
		for _, b := range base {
			if !better(n, b) {
				dominates = false
			}
		}
	}
	worsening := c.change
	if m.better == "higher" {
		worsening = -c.change
	}
	gain := better(c.cand.Median, c.base.Median) &&
		math.Abs(c.cand.Median-c.base.Median) > c.base.Q3-c.base.Q1 &&
		c.pairs >= minPairs && float64(c.wins) >= 0.9*float64(c.pairs)
	switch {
	case gain:
		c.verdict = "better"
	case c.base.spread() > m.bound && !dominates:
		c.verdict = "unresolved"
	case worsening > m.bound:
		c.verdict = "worse"
	default:
		c.verdict = "same"
	}
	return c
}
