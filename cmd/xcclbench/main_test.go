package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"mpixccl/internal/sim/simtest"
)

// TestMain runs the suite under the leak gate: every world a test builds
// must be released when it finishes.
func TestMain(m *testing.M) { simtest.Main(m) }

// cli runs the command on args and returns its exit status, its standard
// output without the wall-time lines, and its standard error.
func cli(args ...string) (code int, out, errOut string) {
	var stdout, stderr bytes.Buffer
	code = run(args, &stdout, &stderr)
	var kept []string
	for _, line := range strings.SplitAfter(stdout.String(), "\n") {
		if !strings.Contains(line, "wall time") {
			kept = append(kept, line)
		}
	}
	return code, strings.Join(kept, ""), stderr.String()
}

// TestCLI drives the command's entry point. Each exhibit it prints must
// equal its golden entry byte for byte, which also shows -compile reaching
// the exhibit pipeline, and fig5 must differ with and without it. The
// chaos soak and the scaling sweep must finish cleanly, and bad flags must
// exit 2.
func TestCLI(t *testing.T) {
	data, err := os.ReadFile("../../internal/experiments/testdata/golden_quick.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	outs := map[string]string{}
	for _, tc := range []struct {
		key  string
		args []string
	}{
		{"fig5", []string{"-exp", "fig5"}},
		{"fig5-compile", []string{"-exp", "fig5", "-compile"}},
		{"partition", []string{"-exp", "partition"}},
	} {
		code, out, errOut := cli(tc.args...)
		if code != 0 {
			t.Errorf("xcclbench %s exited %d: %s", strings.Join(tc.args, " "), code, errOut)
		}
		// Each exhibit is followed by its wall-time line and a blank line.
		if want := golden[tc.key] + "\n"; out != want {
			t.Errorf("xcclbench %s differs from golden %q.\n--- want ---\n%s--- got ---\n%s",
				strings.Join(tc.args, " "), tc.key, want, out)
		}
		outs[tc.key] = out
	}
	if outs["fig5"] == outs["fig5-compile"] {
		t.Error("xcclbench -exp fig5 -compile equals the run without -compile")
	}
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-chaos", "seed=7,runs=6"}, 0},
		{[]string{"-scale", "ranks=256,shards=2"}, 0},
		{[]string{"-nosuchflag"}, 2},
		{[]string{"-crash", "3"}, 2},
	} {
		if code, _, errOut := cli(tc.args...); code != tc.want {
			t.Errorf("xcclbench %s exited %d, want %d: %s", strings.Join(tc.args, " "), code, tc.want, errOut)
		}
	}
}

func TestParseAt(t *testing.T) {
	cases := []struct {
		spec string
		a, b int
		ok   bool
	}{
		{"3@2", 3, 2, true},
		{"2@0", 2, 0, true},
		{"3@2xyz", 0, 0, false},
		{"3x@2", 0, 0, false},
		{"-1@2", 0, 0, false},
		{"3@-2", 0, 0, false},
		{"3", 0, 0, false},
		{"3@", 0, 0, false},
		{"@2", 0, 0, false},
		{"3@2@1", 0, 0, false},
		{"", 0, 0, false},
		{"0@0", 0, 0, true},
		{"10@20", 10, 20, true},
		{"+3@4", 0, 0, false},
		{"3@+4", 0, 0, false},
		{"-0@1", 0, 0, false},
		{"03@4", 0, 0, false},
		{"3@04", 0, 0, false},
		{"00@1", 0, 0, false},
		{" 3@4", 0, 0, false},
		{"3@4\n", 0, 0, false},
		{"99999999999999999999@1", 0, 0, false},
	}
	for _, tc := range cases {
		a, b, ok := parseAt(tc.spec)
		if ok != tc.ok {
			t.Errorf("parseAt(%q) ok = %v, want %v", tc.spec, ok, tc.ok)
			continue
		}
		if ok && (a != tc.a || b != tc.b) {
			t.Errorf("parseAt(%q) = %d@%d, want %d@%d", tc.spec, a, b, tc.a, tc.b)
		}
	}
}

// FuzzParseAt: every spec parseAt accepts is two non-negative integers
// that print back as the same spec.
func FuzzParseAt(f *testing.F) {
	for _, s := range []string{"3@2", "0@0", "+3@4", "-0@1", "03@4", "3@2@1", "9223372036854775807@1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		a, b, ok := parseAt(spec)
		if !ok {
			return
		}
		if a < 0 || b < 0 {
			t.Fatalf("parseAt(%q) accepted negative %d@%d", spec, a, b)
		}
		if again := fmt.Sprintf("%d@%d", a, b); again != spec {
			t.Fatalf("parseAt(%q) = %d@%d, which prints as %q", spec, a, b, again)
		}
	})
}

// TestParseSpec covers both key=N[,key=M] specs: -scale through
// parseScale and -chaos through parseSpec with its keys.
func TestParseSpec(t *testing.T) {
	chaos := func(spec string) (int, int, bool) { return parseSpec(spec, "seed", "runs") }
	cases := []struct {
		parse func(string) (int, int, bool)
		spec  string
		a, b  int
		ok    bool
	}{
		{parseScale, "ranks=64", 64, 1, true},
		{parseScale, "ranks=4096,shards=2", 4096, 2, true},
		{parseScale, "ranks=256,shards=1", 256, 1, true},
		{parseScale, "ranks=0", 0, 0, false},
		{parseScale, "ranks=0,shards=2", 0, 0, false},
		{parseScale, "ranks=64,shards=0", 0, 0, false},
		{parseScale, "ranks=64junk", 0, 0, false},
		{parseScale, "ranks=64,shards=2junk", 0, 0, false},
		{parseScale, "ranks=64,", 0, 0, false},
		{parseScale, "ranks=64,shards=2,shards=4", 0, 0, false},
		{parseScale, "shards=2,ranks=64", 0, 0, false},
		{parseScale, "ranks=064", 0, 0, false},
		{parseScale, "ranks=+64", 0, 0, false},
		{parseScale, "ranks=-64", 0, 0, false},
		{parseScale, "ranks= 64", 0, 0, false},
		{parseScale, "ranks=", 0, 0, false},
		{parseScale, "", 0, 0, false},
		{chaos, "seed=7", 7, 0, true},
		{chaos, "seed=0,runs=6", 0, 6, true},
		{chaos, "seed=7xyz,runs=1", 0, 0, false},
		{chaos, "seed=7,runs=1xyz", 0, 0, false},
		{chaos, "seed=7,runs=0", 0, 0, false},
		{chaos, "seed=7,runs=-1", 0, 0, false},
		{chaos, "seed=7,shards=1", 0, 0, false},
		{chaos, "ranks=7", 0, 0, false},
		{chaos, "seed=99999999999999999999", 0, 0, false},
	}
	for _, tc := range cases {
		a, b, ok := tc.parse(tc.spec)
		if ok != tc.ok {
			t.Errorf("%q: ok = %v, want %v", tc.spec, ok, tc.ok)
			continue
		}
		if ok && (a != tc.a || b != tc.b) {
			t.Errorf("%q = %d, %d, want %d, %d", tc.spec, a, b, tc.a, tc.b)
		}
	}
}

// TestScaleSweepRows: RunScale clamps the shard count to the node count
// (thetagpu has 8 devices per node), so a sweep wider than the node count
// must end at one node per shard instead of repeating that row.
func TestScaleSweepRows(t *testing.T) {
	cases := []struct {
		ranks, shards int
		want          []int
	}{
		{8, 4, []int{1}},
		{16, 4, []int{1, 2}},
		{24, 4, []int{1, 2, 3}},
		{64, 4, []int{1, 2, 4}},
		{64, 3, []int{1, 2, 3}},
	}
	for _, tc := range cases {
		results, err := scaleSweep(tc.ranks, tc.shards)
		if err != nil {
			t.Fatalf("ranks=%d,shards=%d: %v", tc.ranks, tc.shards, err)
		}
		var got []int
		for _, r := range results {
			if !r.OK {
				t.Errorf("ranks=%d,shards=%d: %d-shard row failed its digest check", tc.ranks, tc.shards, r.Shards)
			}
			got = append(got, r.Shards)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ranks=%d,shards=%d: rows at shards %v, want %v", tc.ranks, tc.shards, got, tc.want)
		}
	}
}

// FuzzParseScale: every spec parseScale accepts is a positive rank and
// shard count that print back as the same spec (the shards field may be
// omitted only when it is 1).
func FuzzParseScale(f *testing.F) {
	for _, s := range []string{"ranks=64", "ranks=4096,shards=2", "ranks=64,shards=0", "ranks=64junk", "ranks=0", "ranks=064,shards=2", "ranks=1,shards=1,shards=1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		ranks, shards, ok := parseScale(spec)
		if !ok {
			return
		}
		if ranks < 1 || shards < 1 {
			t.Fatalf("parseScale(%q) accepted ranks=%d shards=%d", spec, ranks, shards)
		}
		again := fmt.Sprintf("ranks=%d,shards=%d", ranks, shards)
		if again != spec && spec+",shards=1" != again {
			t.Fatalf("parseScale(%q) = %d, %d, which prints as %q", spec, ranks, shards, again)
		}
	})
}
