package comp

import "testing"

// FuzzParseKey feeds arbitrary plan keys to ParseKey and ValidKey, seeded
// with every candidate key. A parsed key must round-trip through its
// canonical form, and a key ValidKey accepts for an op must lower on a
// small topology — a tuning table can carry nothing the compiler then
// fails on. testdata/fuzz holds an oversized depth and the phased key
// (valid for alltoall, refused for scatter and gather).
func FuzzParseKey(f *testing.F) {
	for _, op := range []string{"alltoall", "scatter"} {
		for _, k := range Keys(op, thetaTopo(2, 2)) {
			f.Add(k)
		}
	}
	f.Add("staged:intra=tree,stripe=64,depth=1,chunk=4096")
	topo := topoOf(0, 0, 1, 2, 2, 2)
	f.Fuzz(func(t *testing.T, key string) {
		s, err := ParseKey(key)
		if err == nil {
			back, err := ParseKey(s.Key())
			if err != nil || back != s {
				t.Fatalf("ParseKey(%q) = %+v, canonical %q parses to %+v, %v", key, s, s.Key(), back, err)
			}
		}
		for _, op := range []string{"alltoall", "alltoallv", "scatter", "gather", "allreduce"} {
			if ValidKey(op, key) != nil {
				continue
			}
			if _, err := CompileKey(op, topo, Shape{BlockBytes: 24, Root: 5}, key); err != nil {
				t.Fatalf("ValidKey(%s, %q) accepted a key that does not lower: %v", op, key, err)
			}
		}
	})
}
