package main

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mpixccl/internal/fault"
	"mpixccl/internal/sim/simtest"
)

// TestMain runs the suite under the leak gate: every world a test builds
// must be released when it finishes.
func TestMain(m *testing.M) { simtest.Main(m) }

// cli runs the command on args and returns its exit status, its standard
// output and its standard error.
func cli(args ...string) (code int, out, errOut string) {
	var stdout, stderr bytes.Buffer
	code = run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestCLI drives the command's entry point: bad flags exit 2 and a run
// that cannot start exits 1, while a collective sweep, a point-to-point
// sweep and a metrics run print their table header and one row per size.
func TestCLI(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-h"}, 0},
		{[]string{"-nosuchflag"}, 2},
		{[]string{"-crash", "3"}, 2},
		{[]string{"-partition", "1@400us,200us"}, 2},
		{[]string{"-bench", "nosuchbench"}, 1},
	} {
		if code, _, errOut := cli(tc.args...); code != tc.want {
			t.Errorf("ombrun %s exited %d, want %d: %s", strings.Join(tc.args, " "), code, tc.want, errOut)
		}
	}
	for _, tc := range []struct {
		args   []string
		header []string // the first lines of stdout
		rows   int      // table rows after the header
	}{
		{[]string{"-bench", "allreduce", "-max", "64", "-f"}, []string{
			"# OMB allreduce, thetagpu, 1 node(s), stack hybrid-xccl, backend auto",
			"Size         Avg(us)        Min(us)        Max(us)       "}, 5},
		{[]string{"-bench", "latency", "-min", "1", "-max", "1024"}, []string{
			"# OMB pt2pt latency, thetagpu, 1 node(s), backend auto",
			"Size         Latency(us)    BW(MB/s)      "}, 11},
		{[]string{"-bench", "bcast", "-stack", "mpi", "-max", "16", "-metrics", "-"}, []string{
			"# OMB bcast, thetagpu, 1 node(s), stack mpi, backend auto",
			"Size         Avg Latency(us)"}, 3},
	} {
		name := "ombrun " + strings.Join(tc.args, " ")
		code, out, errOut := cli(tc.args...)
		if code != 0 {
			t.Errorf("%s exited %d: %s", name, code, errOut)
			continue
		}
		lines := strings.Split(out, "\n")
		if len(lines) < len(tc.header)+tc.rows {
			t.Errorf("%s printed %d lines:\n%s", name, len(lines), out)
			continue
		}
		for i, want := range tc.header {
			if lines[i] != want {
				t.Errorf("%s line %d = %q, want %q", name, i, lines[i], want)
			}
		}
		rows := 0
		for _, l := range lines[len(tc.header):] {
			if l == "" || l[0] < '0' || l[0] > '9' {
				break
			}
			rows++
		}
		if rows != tc.rows {
			t.Errorf("%s printed %d table rows, want %d:\n%s", name, rows, tc.rows, out)
		}
		metricsOut := strings.Join(lines[len(tc.header)+rows:], "\n")
		if hasMetrics := strings.Contains(metricsOut, "# TYPE mpi_sends_total counter"); hasMetrics != slices.Contains(tc.args, "-metrics") {
			t.Errorf("%s printed metrics %v, want %v:\n%s", name, hasMetrics, !hasMetrics, out)
		}
	}
}

func TestParseCrash(t *testing.T) {
	cases := []struct {
		spec       string
		rank, call int
		ok         bool
	}{
		{"2@10", 2, 10, true},
		{"0@0", 0, 0, true},
		{"2@10x", 0, 0, false},
		{"2x@10", 0, 0, false},
		{"-1@3", 0, 0, false},
		{"1@-3", 0, 0, false},
		{"2", 0, 0, false},
		{"2@", 0, 0, false},
		{"@3", 0, 0, false},
		{"2@3@4", 0, 0, false},
		{" 2@3", 0, 0, false},
		{"", 0, 0, false},
	}
	for _, tc := range cases {
		rank, call, err := parseCrash(tc.spec)
		if (err == nil) != tc.ok {
			t.Errorf("parseCrash(%q) error %v, want ok=%v", tc.spec, err, tc.ok)
			continue
		}
		if tc.ok && (rank != tc.rank || call != tc.call) {
			t.Errorf("parseCrash(%q) = %d@%d, want %d@%d", tc.spec, rank, call, tc.rank, tc.call)
		}
	}
}

func TestParsePartition(t *testing.T) {
	rule := func(rank int, from, until time.Duration) fault.PartitionRule {
		return fault.PartitionRule{Name: "rank-cut", Ranks: []int{rank}, From: from, Until: until}
	}
	cases := []struct {
		spec string
		want fault.PartitionRule
		ok   bool
	}{
		{"2@200us", rule(2, 200*time.Microsecond, 0), true},
		{"2@200us,400us", rule(2, 200*time.Microsecond, 400*time.Microsecond), true},
		{"0@0s", rule(0, 0, 0), true},
		{"3@1ms,1.5ms", rule(3, time.Millisecond, 1500*time.Microsecond), true},
		{"2x@200us", fault.PartitionRule{}, false},
		{"-1@-5us", fault.PartitionRule{}, false},
		{"-1@5us", fault.PartitionRule{}, false},
		{"1@-5us", fault.PartitionRule{}, false},
		{"1@5us,-1us", fault.PartitionRule{}, false},
		{"1@5us,", fault.PartitionRule{}, false},
		{"1@5usx", fault.PartitionRule{}, false},
		{"1@400us,200us", fault.PartitionRule{}, false}, // heals before the cut
		{"1@200us,200us", fault.PartitionRule{}, false},
		{"1", fault.PartitionRule{}, false},
		{"@5us", fault.PartitionRule{}, false},
		{"", fault.PartitionRule{}, false},
	}
	for _, tc := range cases {
		got, err := parsePartition(tc.spec)
		if (err == nil) != tc.ok {
			t.Errorf("parsePartition(%q) error %v, want ok=%v", tc.spec, err, tc.ok)
			continue
		}
		if tc.ok && !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parsePartition(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

// formatPartition writes a rule back in the -partition rank@from[,until]
// syntax.
func formatPartition(r fault.PartitionRule) string {
	s := fmt.Sprintf("%d@%v", r.Ranks[0], r.From)
	if r.Until != 0 {
		s += fmt.Sprintf(",%v", r.Until)
	}
	return s
}

// FuzzParsePartition: parsePartition never panics, and every spec it
// accepts is a valid rule that survives a format/parse round trip.
func FuzzParsePartition(f *testing.F) {
	for _, s := range []string{"2@200us", "2@200us,400us", "0@0s", "2x@200us", "-1@-5us",
		"7@1h2m3.5s,2h", "1@+5us", "1@0,0"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		r, err := parsePartition(spec)
		if err != nil {
			return
		}
		if err := fault.CheckPartitionRule(r); err != nil {
			t.Fatalf("parsePartition(%q) accepted an invalid rule %+v: %v", spec, r, err)
		}
		if r.Ranks[0] < 0 || r.From < 0 || r.Until < 0 {
			t.Fatalf("parsePartition(%q) accepted a negative rank or time: %+v", spec, r)
		}
		again, err := parsePartition(formatPartition(r))
		if err != nil || !reflect.DeepEqual(again, r) {
			t.Fatalf("parsePartition(%q) = %+v; formatted as %q it parses to %+v, %v",
				spec, r, formatPartition(r), again, err)
		}
	})
}
