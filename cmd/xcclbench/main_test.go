package main

import (
	"fmt"
	"testing"
)

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
