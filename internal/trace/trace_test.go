package trace

import (
	"strings"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add(Record{Op: "allreduce"})
	if r.Len() != 0 || r.Records() != nil {
		t.Fatal("nil recorder misbehaved")
	}
	r.Reset()
	var sb strings.Builder
	r.Dump(&sb)
	if sb.Len() != 0 {
		t.Fatal("nil dump wrote output")
	}
}

func TestAddAndRecords(t *testing.T) {
	r := New()
	want := []Record{
		{Op: "allreduce", Path: "ccl", Bytes: 100, Duration: 5 * time.Microsecond},
		{Op: "allreduce", Path: "mpi", Bytes: 10, Duration: time.Microsecond},
		{Op: "retry", Rank: -1, Event: "retry"},
		{Op: "bcast", Path: "mpi", Bytes: 50, Duration: 30 * time.Microsecond},
	}
	for _, rec := range want {
		r.Add(rec)
	}
	if r.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", r.Len(), len(want))
	}
	// Records keeps insertion order, events included.
	for i, rec := range r.Records() {
		if rec != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, rec, want[i])
		}
	}
}

func TestDumpFiltersToRankZero(t *testing.T) {
	r := New()
	r.Add(Record{Op: "allreduce", Path: "ccl", Rank: 0, Bytes: 8})
	r.Add(Record{Op: "allreduce", Path: "ccl", Rank: 3, Bytes: 8})
	var sb strings.Builder
	r.Dump(&sb)
	if strings.Count(sb.String(), "allreduce") != 1 {
		t.Fatalf("dump = %q", sb.String())
	}
}

func TestReset(t *testing.T) {
	r := New()
	r.Add(Record{Op: "x"})
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("reset did not clear")
	}
}
