// Package comp is the compositional collective compiler: lowerings from
// the send-recv-synthesized collectives (Alltoall(v), Scatter, Gather)
// into plans of fence-separated move phases, and an α–β cost model that
// searches decompositions against the machine hierarchy.
//
// The package is machine-agnostic and dependency-free: the ccl layer
// extracts a Topo from its fabric and executes the emitted Plan through
// its existing engine/sender processes; internal/core persists winning
// plan keys in version-3 tuning tables.
//
// IR grammar (a Plan is the only IR; lowerings append phases to it):
//
//	plan  := phase*   phases run in order; a fenced plan barriers between them
//	phase := move*    the moves of one phase may proceed concurrently
//	move  := bytes from one rank's buffer to another's (or the same rank's)
//
// A move names its source and destination buffer (send, recv or
// compiler-allocated scratch) and offset, and may reduce on arrival,
// ship staged through scratch pipes, and ride a stripe lane (concurrent
// sub-flows to one peer). Each phase records its stage class: in a
// pipelined plan (chunked rounds) phases of one class share a resource
// and serialize, and different classes overlap across rounds.
package comp

import "fmt"

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

// SrcLen is the byte count shipped from the source (Bytes unless
// overridden by SrcBytes).
func (m *Move) SrcLen() int64 {
	if m.SrcBytes != 0 {
		return m.SrcBytes
	}
	return m.Bytes
}

// Phase is one fence-separated schedule step: its moves may proceed
// concurrently; every move completes before the next phase starts.
type Phase struct {
	Moves []Move
	// Stage is the phase's stage class for pipelined costing (staged
	// lowerings: 0 = inter-node hop, 1 = intra-node hop).
	Stage int
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
	// PipeDepth is the chunked round count (1 = unpipelined).
	PipeDepth int
	// Scratch is the staging bytes each rank must provide (nil = none).
	// Set by Check.
	Scratch []int64
	// Slot is the staged pipe slot size: the largest staged move's source
	// chunk, or 1 when no move is staged (the slot is unused then, but
	// pipes want a positive capacity). Set by Check.
	Slot int64
	// Cost is the α–β model's estimate for the whole plan.
	Cost float64

	rankProgs []*RankProgram // lazy per-rank split (single-threaded use)
}

// newPlan starts an empty unpipelined plan for (op, strategy) on t.
func newPlan(op string, t *Topo, s Strategy) *Plan {
	return &Plan{Op: op, Key: s.Key(), Ranks: t.Ranks(), ChunkBytes: s.Chunk, PipeDepth: 1}
}

// add appends a phase of the given stage class; an empty one (a chunk or
// relay level with nothing to move) is dropped.
func (p *Plan) add(stage int, moves []Move) {
	if len(moves) > 0 {
		p.Phases = append(p.Phases, Phase{Moves: moves, Stage: stage})
	}
}

// Check validates the plan — every move's endpoints in range, no negative
// size or offset, reduce moves staged — and sizes it for the executor:
// Scratch (the furthest byte each rank's scratch moves reach) and Slot.
func (p *Plan) Check() error {
	scratch := make([]int64, p.Ranks)
	var hasScratch bool
	p.Slot = 1
	for pi := range p.Phases {
		for mi := range p.Phases[pi].Moves {
			m := &p.Phases[pi].Moves[mi]
			if m.From < 0 || m.From >= p.Ranks || m.To < 0 || m.To >= p.Ranks {
				return fmt.Errorf("comp: %s plan phase %d move %d: endpoints %d->%d out of %d ranks",
					p.Op, pi, mi, m.From, m.To, p.Ranks)
			}
			if m.Bytes < 0 || m.SrcBytes < 0 || m.SrcOff < 0 || m.DstOff < 0 {
				return fmt.Errorf("comp: %s plan phase %d move %d: negative size or offset", p.Op, pi, mi)
			}
			if m.Reduce && !m.Staged {
				return fmt.Errorf("comp: %s plan phase %d move %d: reduce move must be staged", p.Op, pi, mi)
			}
			if m.Staged {
				p.Slot = max(p.Slot, m.SrcLen())
			}
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
	p.Scratch = nil
	if hasScratch {
		p.Scratch = scratch
	}
	return nil
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
