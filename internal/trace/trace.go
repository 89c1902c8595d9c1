// Package trace records per-operation timelines of communication calls:
// which collective ran, on which path (MPI or CCL), how many bytes, and how
// long it took in virtual time. It provides the profiling visibility that
// MSCCL exposes for custom algorithms and that the paper's evaluation
// methodology relies on, as a library usable by any layer.
package trace

import (
	"fmt"
	"io"
	"time"
)

// Record is one completed operation, or — when Event is set — one
// resilience event (a retry, a breaker transition) on the same timeline.
type Record struct {
	// Op names the operation, e.g. "allreduce".
	Op string
	// Path names the executor, e.g. "ccl", "mpi". Empty for events.
	Path string
	// Backend names the library, e.g. "nccl-2.18.3".
	Backend string
	// Rank is the calling rank; runtime-scoped events use -1.
	Rank int
	// Bytes is the payload size.
	Bytes int64
	// Start is the virtual start time; Duration the elapsed virtual time.
	Start    time.Duration
	Duration time.Duration
	// Event, when non-empty, marks a resilience or membership event
	// ("retry", "breaker_open", "rank_dead", "comm_shrink", ...) instead of
	// a completed operation.
	Event string
}

// Recorder accumulates records. The zero value is ready to use; a nil
// *Recorder ignores all records, so callers can thread it unconditionally.
type Recorder struct {
	records []Record
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Add appends a record. Safe on nil.
func (r *Recorder) Add(rec Record) {
	if r == nil {
		return
	}
	r.records = append(r.records, rec)
}

// Len reports the record count. Safe on nil.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.records)
}

// Records returns the accumulated records in insertion order.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	return r.records
}

// Reset clears the recorder.
func (r *Recorder) Reset() {
	if r != nil {
		r.records = r.records[:0]
	}
}

// Dump writes a human-readable timeline to w (rank-0 and runtime-scoped
// records only, to keep SPMD output readable).
func (r *Recorder) Dump(w io.Writer) {
	if r == nil {
		return
	}
	for _, rec := range r.records {
		if rec.Rank > 0 {
			continue
		}
		if rec.Event != "" {
			fmt.Fprintf(w, "%12v  %-14s !%s %s\n", rec.Start, rec.Op, rec.Event, rec.Backend)
			continue
		}
		fmt.Fprintf(w, "%12v  %-14s %-4s %-14s %10d B  %v\n",
			rec.Start, rec.Op, rec.Path, rec.Backend, rec.Bytes, rec.Duration)
	}
}
