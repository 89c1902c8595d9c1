package core

import (
	"strings"
	"testing"
	"testing/quick"

	"mpixccl/internal/ccl"
)

func TestTuningLookupBands(t *testing.T) {
	tab := &TuningTable{System: "test", Backend: "nccl"}
	tab.Set(OpAllreduce, []Threshold{
		{MaxBytes: 16 << 10, Path: PathMPI},
		{MaxBytes: 0, Path: PathCCL},
	})
	cases := []struct {
		bytes int64
		want  Path
	}{
		{1, PathMPI}, {16 << 10, PathMPI}, {16<<10 + 1, PathCCL}, {1 << 30, PathCCL},
	}
	for _, c := range cases {
		if got := tab.Lookup(OpAllreduce, c.bytes); got != c.want {
			t.Errorf("lookup(%d) = %v, want %v", c.bytes, got, c.want)
		}
	}
}

func TestTuningLookupDefaults(t *testing.T) {
	var nilTab *TuningTable
	if nilTab.Lookup(OpAllreduce, 1) != PathCCL {
		t.Error("nil table should default to CCL")
	}
	tab := &TuningTable{}
	if tab.Lookup(OpBcast, 1) != PathCCL {
		t.Error("missing rule should default to CCL")
	}
}

func TestTuningSetSortsThresholds(t *testing.T) {
	tab := &TuningTable{}
	tab.Set(OpReduce, []Threshold{
		{MaxBytes: 0, Path: PathCCL},
		{MaxBytes: 1024, Path: PathMPI},
		{MaxBytes: 64, Path: PathCCL},
	})
	rule := tab.Rules[OpReduce]
	if rule[0].MaxBytes != 64 || rule[1].MaxBytes != 1024 || rule[2].MaxBytes != 0 {
		t.Fatalf("rule order = %+v", rule)
	}
	if tab.Lookup(OpReduce, 32) != PathCCL || tab.Lookup(OpReduce, 512) != PathMPI {
		t.Fatal("banded lookup wrong after sort")
	}
}

func TestTuningJSONRoundTrip(t *testing.T) {
	tab := DefaultTableFor("ThetaGPU", NCCL, false)
	data, err := tab.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseTable(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.System != tab.System || back.Backend != tab.Backend {
		t.Fatalf("round trip lost identity: %+v", back)
	}
	for _, bytes := range []int64{1, 4 << 10, 16 << 10, 64 << 10, 4 << 20} {
		for _, op := range []OpKind{OpAllreduce, OpAlltoall, OpBcast} {
			if back.Lookup(op, bytes) != tab.Lookup(op, bytes) {
				t.Fatalf("lookup diverges after round trip: %s %d", op, bytes)
			}
		}
	}
}

func TestParseTableRejectsGarbage(t *testing.T) {
	if _, err := ParseTable([]byte("{nope")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestDefaultTableCrossovers(t *testing.T) {
	// The built-in tables must encode the paper's measured crossovers:
	// Fig 1a: MPI wins <=16 KB vs NCCL allreduce; Fig 1b: <=64 KB vs RCCL
	// allgather; HCCL's 270 µs launch pushes everything to 1 MB.
	nccl := DefaultTableFor("ThetaGPU", NCCL, false)
	if nccl.Lookup(OpAllreduce, 16<<10) != PathMPI || nccl.Lookup(OpAllreduce, 32<<10) != PathCCL {
		t.Error("NCCL allreduce crossover wrong")
	}
	if nccl.Lookup(OpAlltoall, 4<<10) != PathMPI || nccl.Lookup(OpAlltoall, 8<<10) != PathCCL {
		t.Error("NCCL alltoall crossover wrong")
	}
	rccl := DefaultTableFor("MRI", RCCL, false)
	if rccl.Lookup(OpAllgather, 64<<10) != PathMPI || rccl.Lookup(OpAllgather, 128<<10) != PathCCL {
		t.Error("RCCL allgather crossover wrong")
	}
	hccl := DefaultTableFor("Voyager", HCCL, false)
	if hccl.Lookup(OpAllreduce, 512<<10) != PathMPI || hccl.Lookup(OpAllreduce, 2<<20) != PathCCL {
		t.Error("HCCL crossover wrong")
	}
}

// Property: every lookup returns a decisive path and banding is monotone
// within two-band crossover rules (MPI below, CCL above).
func TestCrossoverMonotoneProperty(t *testing.T) {
	f := func(crossRaw uint16, probeRaw uint32) bool {
		cross := int64(crossRaw) + 1
		tab := &TuningTable{}
		tab.Set(OpAllreduce, crossover(cross))
		probe := int64(probeRaw)
		got := tab.Lookup(OpAllreduce, probe)
		if probe <= cross {
			return got == PathMPI
		}
		return got == PathCCL
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPathString(t *testing.T) {
	if PathMPI.String() != "mpi" || PathCCL.String() != "ccl" {
		t.Error("path names wrong")
	}
}

// TestParseTableMigration pins the forward/backward-compat contract: v1
// (unversioned) and v2 tables load unchanged, v3 tables with compiled-plan
// keys load and validate, and anything newer than v3 is rejected with an
// error that names the offending version.
func TestParseTableMigration(t *testing.T) {
	cases := []struct {
		name    string
		json    string
		wantErr string
		check   func(t *testing.T, tab *TuningTable)
	}{
		{
			name: "v1-unversioned",
			json: `{"system":"ThetaGPU","backend":"nccl","rules":{
				"allreduce":[{"max_bytes":16384,"path":0},{"max_bytes":0,"path":1}]}}`,
			check: func(t *testing.T, tab *TuningTable) {
				if tab.Lookup(OpAllreduce, 1<<10) != PathMPI || tab.Lookup(OpAllreduce, 1<<20) != PathCCL {
					t.Fatal("v1 bands misread")
				}
				th, _ := tab.Choice(OpAllreduce, 1<<20)
				if th.Algo != ccl.AlgoAuto || th.Plan != "" {
					t.Fatalf("v1 band gained fields: %+v", th)
				}
			},
		},
		{
			name: "v2-algo-chunk",
			json: `{"version":2,"system":"ThetaGPU","backend":"nccl","rules":{
				"allreduce":[{"max_bytes":0,"path":1,"algo":"hierarchical","chunk_bytes":1048576}]}}`,
			check: func(t *testing.T, tab *TuningTable) {
				th, _ := tab.Choice(OpAllreduce, 1<<20)
				if th.Algo != ccl.AlgoHierarchical || th.ChunkBytes != 1<<20 || th.Plan != "" {
					t.Fatalf("v2 band misread: %+v", th)
				}
			},
		},
		{
			name: "v3-compiled-plan",
			json: `{"version":3,"system":"ThetaGPU","backend":"nccl","rules":{
				"alltoall":[{"max_bytes":0,"path":1,"plan":"phased:chunk=1048576"}],
				"scatter":[{"max_bytes":0,"path":1,"plan":"staged:intra=tree,stripe=2,depth=1"}]}}`,
			check: func(t *testing.T, tab *TuningTable) {
				th, _ := tab.Choice(OpAlltoall, 1<<20)
				if th.Plan != "phased:chunk=1048576" {
					t.Fatalf("v3 plan misread: %+v", th)
				}
			},
		},
		{
			name:    "v4-rejected",
			json:    `{"version":4,"system":"ThetaGPU","backend":"nccl","rules":{}}`,
			wantErr: "version 4",
		},
		{
			name: "v3-bad-plan-key",
			json: `{"version":3,"system":"ThetaGPU","backend":"nccl","rules":{
				"alltoall":[{"max_bytes":0,"path":1,"plan":"warp-drive"}]}}`,
			wantErr: "warp-drive",
		},
		{
			name: "v3-native-plan-rejected",
			json: `{"version":3,"system":"ThetaGPU","backend":"nccl","rules":{
				"allreduce":[{"max_bytes":0,"path":1,"plan":"native:hier"}]}}`,
			wantErr: "native:hier",
		},
		{
			name: "v3-phased-gather-rejected",
			json: `{"version":3,"system":"ThetaGPU","backend":"nccl","rules":{
				"gather":[{"max_bytes":0,"path":1,"plan":"phased"}]}}`,
			wantErr: "no phased lowering",
		},
		{
			name: "v2-unknown-algo",
			json: `{"version":2,"system":"ThetaGPU","backend":"nccl","rules":{
				"allreduce":[{"max_bytes":0,"path":1,"algo":"warp-ring"}]}}`,
			wantErr: "warp-ring",
		},
		{
			name: "v3-plan-wrong-op",
			json: `{"version":3,"system":"ThetaGPU","backend":"nccl","rules":{
				"allreduce":[{"max_bytes":0,"path":1,"plan":"phased"}]}}`,
			wantErr: "allreduce",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tab, err := ParseTable([]byte(c.json))
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want mention of %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			c.check(t, tab)
		})
	}
}

// TestTuningJSONStampsV3 pins that re-serialized tables carry the current
// version so older binaries refuse them instead of dropping plan bands.
func TestTuningJSONStampsV3(t *testing.T) {
	tab := &TuningTable{System: "s", Backend: "nccl"}
	tab.Set(OpAlltoall, []Threshold{{MaxBytes: 0, Path: PathCCL, Plan: "phased"}})
	data, err := tab.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"version": 3`) {
		t.Fatalf("serialized table missing v3 stamp:\n%s", data)
	}
	back, err := ParseTable(data)
	if err != nil {
		t.Fatal(err)
	}
	th, _ := back.Choice(OpAlltoall, 1)
	if th.Plan != "phased" {
		t.Fatalf("plan lost in round trip: %+v", th)
	}
}
