// Package comp is the compositional collective compiler: a primitive IR
// (multicast / reduce / shuffle / fence steps over rank groups with
// chunking and striping attributes), a lowering from the
// send-recv-synthesized collectives (Alltoall(v), Scatter, Gather) into a
// primitive DAG, and an α–β cost model that searches
// decompositions against the machine hierarchy and emits an executable
// schedule (a Plan of fence-separated move phases).
//
// The package is machine-agnostic and dependency-free: the ccl layer
// extracts a Topo from its fabric and executes the emitted Plan through
// its existing engine/sender processes; internal/core persists winning
// plan keys in version-3 tuning tables.
//
// IR grammar (one primitive per DAG node):
//
//	prim     := multicast | reduce | shuffle | fence
//	multicast: root ∈ group sends distinct or identical blocks to every
//	           member (Scatter fan-out, Bcast relay, leader fan-in/out)
//	reduce   : every member combines its block into root (ReduceOp moves)
//	shuffle  : a bipartite block permutation between two rank groups
//	           (Alltoall phases, leader exchanges)
//	fence    : a cross-group barrier ordering the prims depending on it
//
// Attributes: Stripe splits a prim's inter-node flows across w concurrent
// sub-flows (multi-rail saturation when a lone transfer's DirChannels cap
// is below the NIC pool), ChunkBytes sets the pipeline granularity, and
// the derived pipeline depth is Stripe × ⌈bytes/ChunkBytes⌉ in-flight
// chunks. Scheduling linearizes the DAG into fence-separated phases whose
// moves execute concurrently.
package comp

import (
	"fmt"
	"sort"
)

// PrimKind enumerates the IR primitives.
type PrimKind int

const (
	// Multicast distributes blocks from Root to the group.
	Multicast PrimKind = iota
	// Reduce combines the group's blocks into Root.
	Reduce
	// Shuffle permutes blocks between ranks (bipartite exchange).
	Shuffle
	// Fence orders dependents after every move of the prims it depends on.
	Fence
)

// String names the primitive kind.
func (k PrimKind) String() string {
	switch k {
	case Multicast:
		return "multicast"
	case Reduce:
		return "reduce"
	case Shuffle:
		return "shuffle"
	case Fence:
		return "fence"
	}
	return fmt.Sprintf("prim(%d)", int(k))
}

// BufRole says which buffer of a rank a move offset indexes.
type BufRole int

const (
	// SendBuf is the rank's user send buffer.
	SendBuf BufRole = iota
	// RecvBuf is the rank's user receive buffer.
	RecvBuf
	// ScratchBuf is per-rank compiler-allocated staging space.
	ScratchBuf
)

// Move is one concrete block movement: Bytes bytes from From's SrcBuf at
// SrcOff into To's DstBuf at DstOff. From == To models a local copy.
// Reduce moves combine into the destination with the call's reduction
// operator; they require staged transport (the executor ships them through
// scratch pipes and reduces on arrival). Staged forces pipe transport for
// non-reducing moves too — the MSCCL interpreter compiles to staged moves
// so converted schedules keep their exact flow control.
type Move struct {
	From, To       int
	SrcBuf, DstBuf BufRole
	SrcOff, DstOff int64
	Bytes          int64
	// SrcBytes overrides the byte count shipped from the source when it
	// differs from the destination chunk (uneven MSCCL partitions); zero
	// means Bytes.
	SrcBytes int64
	Reduce   bool
	Staged   bool
	// Lane stripes concurrent sub-flows: the executor runs one sender
	// process per (destination, lane), so moves on distinct lanes to the
	// same peer proceed in parallel.
	Lane int
}

// srcLen is the byte count shipped from the source.
func (m *Move) srcLen() int64 {
	if m.SrcBytes != 0 {
		return m.SrcBytes
	}
	return m.Bytes
}

// SrcLen is the byte count shipped from the source (Bytes unless
// overridden by SrcBytes).
func (m *Move) SrcLen() int64 { return m.srcLen() }

// Prim is one IR node: a primitive over a rank group with chunking and
// striping attributes, lowered to concrete moves, plus DAG dependencies
// (indices into the owning DAG's node list).
type Prim struct {
	Kind       PrimKind
	Group      []int // participating ranks (world ranks)
	Root       int   // multicast source / reduce destination
	Stripe     int   // concurrent inter-node sub-flows (0/1 = unstriped)
	ChunkBytes int64 // pipeline granularity (0 = whole-block)
	Moves      []Move
	Deps       []int
}

// DAG is a compiled primitive graph for one collective call shape.
type DAG struct {
	Op    string
	Ranks int
	Prims []Prim
}

// Validate checks the DAG's structural consistency: endpoint ranks in
// range, dependency indices acyclic (deps must point at earlier prims —
// lowerings emit nodes in topological order), and reduce moves staged.
func (d *DAG) Validate() error {
	for i, pr := range d.Prims {
		for _, dep := range pr.Deps {
			if dep < 0 || dep >= i {
				return fmt.Errorf("comp: %s dag prim %d: dep %d not an earlier prim", d.Op, i, dep)
			}
		}
		for mi, m := range pr.Moves {
			if m.From < 0 || m.From >= d.Ranks || m.To < 0 || m.To >= d.Ranks {
				return fmt.Errorf("comp: %s dag prim %d move %d: endpoints %d->%d out of %d ranks",
					d.Op, i, mi, m.From, m.To, d.Ranks)
			}
			if m.Bytes < 0 || m.SrcOff < 0 || m.DstOff < 0 {
				return fmt.Errorf("comp: %s dag prim %d move %d: negative size or offset", d.Op, i, mi)
			}
			if m.Reduce && !m.Staged {
				return fmt.Errorf("comp: %s dag prim %d move %d: reduce move must be staged", d.Op, i, mi)
			}
		}
	}
	return nil
}

// Phase is one fence-separated schedule step: its moves may proceed
// concurrently; every move completes before the next phase starts.
type Phase struct {
	Moves []Move
}

// Plan is the executable schedule emitted for one collective call shape:
// fence-separated phases of concrete moves, per-rank scratch requirements,
// and the modeled cost the search ranked it by (virtual seconds).
type Plan struct {
	Op    string
	Key   string // strategy key, persisted in v3 tuning tables
	Ranks int
	// Phases execute in order. With Fenced set, a cross-rank barrier
	// separates them (permutation schedules need clean phase separation to
	// keep egress/ingress pools 1:1). Unfenced plans order phases per rank
	// only — cross-rank ordering comes from data dependencies, which lets
	// chunked rounds pipeline across the hierarchy exactly like the MSCCL
	// interpreter's steps.
	Phases []Phase
	// Fenced requests a global barrier between phases.
	Fenced bool
	// ChunkBytes overrides the fabric pipeline granularity (0 = default).
	ChunkBytes int64
	// StageOf classifies each phase for pipelined costing (same length as
	// Phases when PipeDepth > 1): phases of the same stage class share a
	// resource and serialize; different classes overlap across rounds.
	StageOf []int
	// PipeDepth is the chunked round count (1 = unpipelined).
	PipeDepth int
	// Scratch is the staging bytes each rank must provide (nil = none).
	Scratch []int64
	// Cost is the α–β model's estimate for the whole plan.
	Cost float64

	rankProgs []*RankProgram // lazy per-rank split (single-threaded use)
}

// Schedule linearizes the DAG into a Plan: prims are levelled by their
// dependency depth (every prim lands one level after its deepest dep), a
// fence between levels orders the phases, and each level's moves merge in
// prim order. Fence prims contribute ordering only.
func (d *DAG) Schedule(key string) (*Plan, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	level := make([]int, len(d.Prims))
	max := 0
	for i, pr := range d.Prims {
		l := 0
		for _, dep := range pr.Deps {
			if level[dep]+1 > l {
				l = level[dep] + 1
			}
		}
		level[i] = l
		if l > max {
			max = l
		}
	}
	p := &Plan{Op: d.Op, Key: key, Ranks: d.Ranks, Phases: make([]Phase, max+1)}
	scratch := make([]int64, d.Ranks)
	var hasScratch bool
	for i, pr := range d.Prims {
		ph := &p.Phases[level[i]]
		for _, m := range pr.Moves {
			ph.Moves = append(ph.Moves, m)
			for _, end := range [2]struct {
				rank int
				role BufRole
				off  int64
			}{{m.From, m.SrcBuf, m.SrcOff + m.Bytes}, {m.To, m.DstBuf, m.DstOff + m.Bytes}} {
				if end.role == ScratchBuf && end.off > scratch[end.rank] {
					scratch[end.rank] = end.off
					hasScratch = true
				}
			}
		}
	}
	if hasScratch {
		p.Scratch = scratch
	}
	// Drop empty trailing/interior phases (pure-fence levels).
	kept := p.Phases[:0]
	for _, ph := range p.Phases {
		if len(ph.Moves) > 0 {
			kept = append(kept, ph)
		}
	}
	p.Phases = kept
	return p, nil
}

// Dest identifies one sender process: a destination rank plus a stripe
// lane. The executor runs each Dest's moves in order on one process.
type Dest struct {
	To, Lane int
}

// RankPhase is one rank's slice of a phase: the moves it originates
// (grouped per (destination, lane) in first-appearance order, preserving
// per-pair FIFO) and the moves it receives.
type RankPhase struct {
	Outs  []Move
	Dests []Dest // distinct (destination, lane) pairs, in first-out order
	Ins   []Move
}

// RankProgram is one rank's executable slice of a Plan.
type RankProgram struct {
	Phases []RankPhase
}

// Rank splits the plan into one rank's program (memoized; plans are
// confined to one simulated world, which is cooperatively scheduled).
// Self moves (From == To) appear in Outs only — the executor performs
// them as local copies.
func (p *Plan) Rank(r int) *RankProgram {
	if p.rankProgs == nil {
		p.rankProgs = make([]*RankProgram, p.Ranks)
	}
	if p.rankProgs[r] != nil {
		return p.rankProgs[r]
	}
	rp := &RankProgram{Phases: make([]RankPhase, len(p.Phases))}
	for pi, ph := range p.Phases {
		dst := &rp.Phases[pi]
		seen := map[Dest]bool{}
		for _, m := range ph.Moves {
			if m.From == r {
				dst.Outs = append(dst.Outs, m)
				if k := (Dest{m.To, m.Lane}); m.To != r && !seen[k] {
					seen[k] = true
					dst.Dests = append(dst.Dests, k)
				}
			}
			if m.To == r && m.From != r {
				dst.Ins = append(dst.Ins, m)
			}
		}
	}
	p.rankProgs[r] = rp
	return rp
}

// groupRanks returns the sorted distinct ranks of a node-grouped world.
func groupRanks(t *Topo, node int) []int {
	var g []int
	for r, n := range t.NodeOf {
		if n == node {
			g = append(g, r)
		}
	}
	sort.Ints(g)
	return g
}
