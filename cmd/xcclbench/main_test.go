package main

import "testing"

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
