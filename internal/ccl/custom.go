package ccl

import (
	"fmt"

	"mpixccl/internal/ccl/comp"
)

// Custom collective schedules: a small interpreter for MSCCL-style
// user-defined algorithms. A schedule is a sequence of steps; each step is
// a set of chunk transfers executed concurrently. The interpreter runs the
// schedule SPMD across the communicator's ranks with the same credit-based
// flow control as the built-in algorithms, so custom algorithms are
// deadlock-safe by construction.

// XferKind says what the receiver does with an arriving chunk.
type XferKind int

const (
	// Copy overwrites the destination chunk.
	Copy XferKind = iota
	// ReduceOp combines into the destination chunk with the op of the call.
	ReduceOp
)

// ChunkXfer moves source chunk SrcChunk at rank From into DstChunk at rank
// To. Chunks index an NChunks-way partition of the payload.
type ChunkXfer struct {
	From, To           int
	SrcChunk, DstChunk int
	Kind               XferKind
}

// Step is a set of transfers that may proceed concurrently.
type Step struct {
	Xfers []ChunkXfer
}

// Algo is a custom allreduce schedule (an msccl-xml program analogue):
// allreduce is the one collective that dispatches to registered schedules.
type Algo struct {
	// Name labels the algorithm in traces.
	Name string
	// Ranks is the communicator size the schedule is generated for.
	Ranks int
	// NChunks is the payload partition the chunk indices refer to.
	NChunks int
	// MinBytes and MaxBytes bound the payload sizes the schedule applies
	// to (inclusive); zero MaxBytes means unbounded.
	MinBytes, MaxBytes int64
	// Steps execute in order.
	Steps []Step
}

// Validate checks the schedule's internal consistency.
func (a *Algo) Validate() error {
	if a.Ranks < 1 || a.NChunks < 1 {
		return fmt.Errorf("ccl: algo %q: invalid ranks/chunks %d/%d", a.Name, a.Ranks, a.NChunks)
	}
	if a.MinBytes < 0 || a.MaxBytes < 0 || (a.MaxBytes > 0 && a.MinBytes > a.MaxBytes) {
		return fmt.Errorf("ccl: algo %q: invalid size window [%d, %d]", a.Name, a.MinBytes, a.MaxBytes)
	}
	for si, s := range a.Steps {
		for xi, x := range s.Xfers {
			if x.From < 0 || x.From >= a.Ranks || x.To < 0 || x.To >= a.Ranks || x.From == x.To {
				return fmt.Errorf("ccl: algo %q step %d xfer %d: bad endpoints %d->%d", a.Name, si, xi, x.From, x.To)
			}
			if x.SrcChunk < 0 || x.SrcChunk >= a.NChunks || x.DstChunk < 0 || x.DstChunk >= a.NChunks {
				return fmt.Errorf("ccl: algo %q step %d xfer %d: bad chunks %d->%d", a.Name, si, xi, x.SrcChunk, x.DstChunk)
			}
		}
	}
	return nil
}

// Matches reports whether the schedule applies to an allreduce of the
// given byte size on n ranks.
func (a *Algo) Matches(n int, bytes int64) bool {
	return a.Ranks == n && bytes >= a.MinBytes && (a.MaxBytes == 0 || bytes <= a.MaxBytes)
}

// RegisterAlgo installs a custom schedule on the communicator (all rank
// handles share it). Calls whose size matches dispatch to the schedule
// instead of the built-in algorithm.
func (c *Comm) RegisterAlgo(a *Algo) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if a.Ranks != c.core.n {
		return &Error{Backend: c.core.cfg.Name, Result: ErrInvalidArgument,
			Msg: fmt.Sprintf("algo %q built for %d ranks, communicator has %d", a.Name, a.Ranks, c.core.n)}
	}
	c.core.algos = append(c.core.algos, a)
	return nil
}

// findAlgo returns the first registered schedule matching an allreduce
// of the given byte size.
func (co *core) findAlgo(bytes int64) *Algo {
	for _, a := range co.algos {
		if a.Matches(co.n, bytes) {
			return a
		}
	}
	return nil
}

// customPlanKey caches converted schedules per call shape.
type customPlanKey struct {
	algo  *Algo
	count int
	esz   int64
}

// customPlan converts a registered MSCCL schedule into a compiled plan:
// each step becomes one unfenced phase, each chunk transfer a staged
// recv-buffer move (SrcBytes carries the source chunk length when
// segment splits the payload unevenly). The conversion preserves the
// historical interpreter's exact execution — same per-destination sender
// processes, per-pair FIFO order, flow-control credits, and virtual-time
// charges — so converted schedules stay byte-identical with the goldens.
func (co *core) customPlan(a *Algo, count int, esz int64) *comp.Plan {
	if co.customPlans == nil {
		co.customPlans = map[customPlanKey]*comp.Plan{}
	}
	k := customPlanKey{algo: a, count: count, esz: esz}
	if p, ok := co.customPlans[k]; ok {
		return p
	}
	plan := &comp.Plan{Op: "custom/" + a.Name, Key: "msccl", Ranks: a.Ranks,
		Phases: make([]comp.Phase, len(a.Steps)), PipeDepth: 1}
	for si, stp := range a.Steps {
		for _, x := range stp.Xfers {
			slo, sn := segment(count, a.NChunks, x.SrcChunk)
			dlo, dn := segment(count, a.NChunks, x.DstChunk)
			plan.Phases[si].Moves = append(plan.Phases[si].Moves, comp.Move{
				From: x.From, To: x.To,
				SrcBuf: comp.RecvBuf, SrcOff: int64(slo) * esz,
				DstBuf: comp.RecvBuf, DstOff: int64(dlo) * esz,
				Bytes:    int64(dn) * esz,
				SrcBytes: int64(sn) * esz,
				Reduce:   x.Kind == ReduceOp, Staged: true,
			})
		}
	}
	if err := plan.Check(); err != nil {
		// RegisterAlgo validated the schedule's ranks and chunks.
		panic(err)
	}
	co.customPlans[k] = plan
	return plan
}

// runCustom executes the schedule for this rank, operating on the recv
// buffer (which already holds the rank's contribution). The schedule is
// converted to a compiled plan and runs through the unified executor
// (compiled.go).
func (rc *runCtx) runCustom(a *Algo, dt Datatype, op RedOp, count int) {
	rc.runPlan(rc.co.customPlan(a, count, int64(dt.Size())), dt, op)
}

// AllPairsAllReduce generates the MSCCL "allpairs" allreduce schedule for n
// ranks: step 1 sends chunk j of every rank to rank j (reduced on arrival),
// step 2 broadcasts each reduced chunk back. Two latency steps total —
// which is why it beats ring and tree in the medium-message window on
// NVSwitch-class fabrics.
func AllPairsAllReduce(n int, minBytes, maxBytes int64) *Algo {
	a := &Algo{
		Name:     "allpairs",
		Ranks:    n,
		NChunks:  n,
		MinBytes: minBytes,
		MaxBytes: maxBytes,
	}
	var s1, s2 Step
	for r := 0; r < n; r++ {
		for j := 0; j < n; j++ {
			if r == j {
				continue
			}
			s1.Xfers = append(s1.Xfers, ChunkXfer{From: r, To: j, SrcChunk: j, DstChunk: j, Kind: ReduceOp})
			s2.Xfers = append(s2.Xfers, ChunkXfer{From: j, To: r, SrcChunk: j, DstChunk: j, Kind: Copy})
		}
	}
	a.Steps = []Step{s1, s2}
	return a
}
