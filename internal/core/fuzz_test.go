package core

import (
	"reflect"
	"testing"

	"mpixccl/internal/ccl"
)

// FuzzParseTable feeds arbitrary bytes to ParseTable, seeded with the
// built-in, multi-node and hierarchical tables and a v3 table carrying
// plan keys. It must never panic, and a table it accepts must re-encode
// with JSON and parse back equal (JSON stamps the current version).
func FuzzParseTable(f *testing.F) {
	var seeds []*TuningTable
	for _, b := range []BackendKind{NCCL, RCCL, HCCL, MSCCL, OneCCL, NoCCL} {
		seeds = append(seeds,
			DefaultTableFor("thetagpu", b, false),
			DefaultTableFor("mri", b, true),
			HierarchicalTableFor("thetagpu", b, true, 1<<20))
	}
	planned := DefaultTableFor("thetagpu", NCCL, false)
	planned.Set(OpAlltoall, []Threshold{{MaxBytes: 0, Path: PathCCL, Plan: "direct:chunk=4096"}})
	planned.Set(OpAllreduce, []Threshold{{MaxBytes: 0, Path: PathCCL, Algo: ccl.AlgoTree}})
	seeds = append(seeds, planned)
	for _, tab := range seeds {
		data, err := tab.JSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"system":"x","backend":"nccl","rules":{"bcast":[{"max_bytes":8,"path":0,"algo":"auto"}]}}`))
	f.Add([]byte(`{"version":4}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := ParseTable(data)
		if err != nil {
			return
		}
		out, err := tab.JSON()
		if err != nil {
			t.Fatalf("encode accepted table: %v", err)
		}
		back, err := ParseTable(out)
		if err != nil {
			t.Fatalf("re-parse encoded table: %v\n%s", err, out)
		}
		tab.Version = TableVersion
		if !reflect.DeepEqual(tab, back) {
			t.Fatalf("round trip changed the table:\n got %+v\nwant %+v", back, tab)
		}
	})
}
