package core

import (
	"encoding/json"
	"fmt"
	"sort"

	"mpixccl/internal/ccl"
	"mpixccl/internal/ccl/comp"
)

// OpKind names a collective for tuning-table lookup.
type OpKind string

// Tuned operations.
const (
	OpAllreduce     OpKind = "allreduce"
	OpReduce        OpKind = "reduce"
	OpBcast         OpKind = "bcast"
	OpAllgather     OpKind = "allgather"
	OpAlltoall      OpKind = "alltoall"
	OpAlltoallv     OpKind = "alltoallv"
	OpGather        OpKind = "gather"
	OpScatter       OpKind = "scatter"
	OpReduceScatter OpKind = "reducescatter"
)

// Path is the dispatch decision recorded in a tuning table.
type Path int

const (
	// PathMPI runs the traditional MPI algorithm.
	PathMPI Path = iota
	// PathCCL dispatches to the vendor library.
	PathCCL
)

// String names the path.
func (p Path) String() string {
	if p == PathCCL {
		return "ccl"
	}
	return "mpi"
}

// TableVersion is the current tuning-table schema: version 2 added the
// per-band algorithm selector and pipeline chunk size; version 3 added the
// compiled-plan key (Threshold.Plan). Version-1 tables (no version field)
// and version-2 tables parse unchanged — their bands read as algo "auto"
// with no plan.
const TableVersion = 3

// Threshold maps payload sizes up to MaxBytes (inclusive; 0 = unbounded)
// to a path. Entries in a rule are sorted ascending with the unbounded
// entry last. CCL-path bands may additionally force an algorithm family
// and, for the hierarchical pipeline, a chunk size.
type Threshold struct {
	MaxBytes int64 `json:"max_bytes"`
	Path     Path  `json:"path"`
	// Algo forces a CCL schedule family for this band (ccl.AlgoAuto, which
	// the JSON omits and reads from "" or "auto", keeps the backend's
	// built-in size-based split — the only choice version-1 tables could
	// express).
	Algo ccl.Algorithm `json:"algo,omitempty"`
	// ChunkBytes is the hierarchical pipeline chunk (0 = backend default).
	ChunkBytes int64 `json:"chunk_bytes,omitempty"`
	// Plan is the compiled-plan strategy key for this band (v3; "" = no
	// compiled plan). Only the synthesized collectives (alltoall(v),
	// scatter, gather) take one: it names a comp strategy
	// ("phased:chunk=1048576"). A built-in collective's band forces its
	// schedule family through Algo; ParseTable rejects a plan key there.
	Plan string `json:"plan,omitempty"`
}

// TuningTable is the offline-tuned dispatch policy of §3.4: per operation,
// size-banded path choices for one (system, backend) pair.
type TuningTable struct {
	Version int                    `json:"version,omitempty"`
	System  string                 `json:"system"`
	Backend string                 `json:"backend"`
	Rules   map[OpKind][]Threshold `json:"rules"`
}

// Lookup returns the path for an operation at a payload size. Operations
// without a rule default to the CCL path (capability checks still guard it).
func (t *TuningTable) Lookup(op OpKind, bytes int64) Path {
	p, _ := t.LookupDetail(op, bytes)
	return p
}

// LookupDetail is Lookup plus whether a tuned rule decided the path (true)
// or the table fell through to the CCL default (false) — the hit/miss
// split the tuning-lookup metrics report.
func (t *TuningTable) LookupDetail(op OpKind, bytes int64) (Path, bool) {
	th, hit := t.Choice(op, bytes)
	return th.Path, hit
}

// Choice returns the full tuned band for an operation at a payload size
// — path plus any forced algorithm and chunk. A miss (no rule, or no band
// covering the size) returns the CCL-default band with hit=false.
func (t *TuningTable) Choice(op OpKind, bytes int64) (Threshold, bool) {
	if t == nil {
		return Threshold{Path: PathCCL}, false
	}
	rule, ok := t.Rules[op]
	if !ok {
		return Threshold{Path: PathCCL}, false
	}
	for _, th := range rule {
		if th.MaxBytes == 0 || bytes <= th.MaxBytes {
			return th, true
		}
	}
	return Threshold{Path: PathCCL}, false
}

// Set installs a rule, keeping thresholds sorted (unbounded entry last).
func (t *TuningTable) Set(op OpKind, rule []Threshold) {
	sorted := append([]Threshold(nil), rule...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i].MaxBytes, sorted[j].MaxBytes
		if a == 0 {
			return false
		}
		if b == 0 {
			return true
		}
		return a < b
	})
	if t.Rules == nil {
		t.Rules = make(map[OpKind][]Threshold)
	}
	t.Rules[op] = sorted
}

// JSON serializes the table in the xccltuner output format, stamped with
// the current schema version.
func (t *TuningTable) JSON() ([]byte, error) {
	out := *t
	out.Version = TableVersion
	return json.MarshalIndent(&out, "", "  ")
}

// ParseTable loads a table from JSON (the xccltuner output format). Tables
// from older schema versions (including unversioned v1 tables) load
// unchanged; tables from a newer schema are rejected rather than silently
// misread. Algorithm names and plan keys are validated per band.
func ParseTable(data []byte) (*TuningTable, error) {
	var t TuningTable
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("xccl: parse tuning table: %w", err)
	}
	if t.Version > TableVersion {
		return nil, fmt.Errorf("xccl: tuning table version %d is newer than supported version %d",
			t.Version, TableVersion)
	}
	for op, rule := range t.Rules {
		for i, th := range rule {
			if th.Plan != "" {
				if err := comp.ValidKey(string(op), th.Plan); err != nil {
					return nil, fmt.Errorf("xccl: tuning table rule %s band %d: %w", op, i, err)
				}
			}
		}
	}
	return &t, nil
}

// crossover builds the common two-band rule: MPI up to cross bytes, CCL above.
func crossover(cross int64) []Threshold {
	return []Threshold{{MaxBytes: cross, Path: PathMPI}, {MaxBytes: 0, Path: PathCCL}}
}

// DefaultTableFor returns the built-in offline-tuned table for a (system,
// backend) pair. Crossover points mirror the paper's measurements: MPI wins
// below ~16 KB against NCCL Allreduce (Fig 1a), below ~64 KB against RCCL
// Allgather (Fig 1b), and much later against HCCL whose launch overhead is
// 270 µs. Unknown pairs get a conservative generic table. Cross-node jobs
// get the multi-node variants the offline tuner produces: RCCL's higher
// per-op costs across nodes push its crossovers right (it still wins large
// messages on its four HDR rails, per Fig 1b).
func DefaultTableFor(system string, backend BackendKind, multiNode bool) *TuningTable {
	t := &TuningTable{System: system, Backend: string(backend)}
	if multiNode && backend == RCCL {
		for _, op := range []OpKind{OpAllreduce, OpReduce, OpBcast, OpAllgather,
			OpAlltoall, OpAlltoallv, OpReduceScatter, OpGather, OpScatter} {
			t.Set(op, crossover(128<<10))
		}
		return t
	}
	switch backend {
	case NCCL, MSCCL:
		t.Set(OpAllreduce, crossover(16<<10))
		t.Set(OpReduce, crossover(8<<10))
		t.Set(OpBcast, crossover(8<<10))
		t.Set(OpAllgather, crossover(16<<10))
		t.Set(OpAlltoall, crossover(4<<10))
		t.Set(OpAlltoallv, crossover(4<<10))
		t.Set(OpReduceScatter, crossover(16<<10))
		t.Set(OpGather, crossover(32<<10))
		t.Set(OpScatter, crossover(32<<10))
	case OneCCL:
		t.Set(OpAllreduce, crossover(16<<10))
		t.Set(OpReduce, crossover(8<<10))
		t.Set(OpBcast, crossover(8<<10))
		t.Set(OpAllgather, crossover(16<<10))
		t.Set(OpAlltoall, crossover(8<<10))
		t.Set(OpAlltoallv, crossover(8<<10))
		t.Set(OpReduceScatter, crossover(16<<10))
		t.Set(OpGather, crossover(32<<10))
		t.Set(OpScatter, crossover(32<<10))
	case RCCL:
		t.Set(OpAllreduce, crossover(32<<10))
		t.Set(OpReduce, crossover(16<<10))
		t.Set(OpBcast, crossover(16<<10))
		t.Set(OpAllgather, crossover(64<<10))
		t.Set(OpAlltoall, crossover(16<<10))
		t.Set(OpAlltoallv, crossover(16<<10))
		t.Set(OpReduceScatter, crossover(32<<10))
		t.Set(OpGather, crossover(64<<10))
		t.Set(OpScatter, crossover(64<<10))
	case HCCL:
		// HCCL's 270 µs launch floor pushes the crossover far right.
		for _, op := range []OpKind{OpAllreduce, OpReduce, OpBcast, OpAllgather,
			OpAlltoall, OpAlltoallv, OpReduceScatter, OpGather, OpScatter} {
			t.Set(op, crossover(1<<20))
		}
	default:
		for _, op := range []OpKind{OpAllreduce, OpReduce, OpBcast, OpAllgather,
			OpAlltoall, OpAlltoallv, OpReduceScatter, OpGather, OpScatter} {
			t.Set(op, crossover(32<<10))
		}
	}
	return t
}

// HierarchicalTableFor returns the builtin table with every CCL band of
// the collectives that have a hierarchical schedule (allreduce, bcast,
// allgather, reducescatter) upgraded to force it — the shape the offline
// tuner converges to on systems whose intra-node fabric outruns the
// inter-node links. chunkBytes sets the pipeline chunk (0 = the backend's
// HierChunkBytes default). Safe on any shape: the CCL layer degenerates
// hierarchical to the flat algorithms when the job spans a single node.
func HierarchicalTableFor(system string, backend BackendKind, multiNode bool, chunkBytes int64) *TuningTable {
	t := DefaultTableFor(system, backend, multiNode)
	for _, op := range []OpKind{OpAllreduce, OpBcast, OpAllgather, OpReduceScatter} {
		rule := t.Rules[op]
		for i := range rule {
			if rule[i].Path == PathCCL {
				rule[i].Algo = ccl.AlgoHierarchical
				rule[i].ChunkBytes = chunkBytes
			}
		}
	}
	return t
}
