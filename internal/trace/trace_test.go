package trace

import (
	"strings"
	"testing"
	"time"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Add(Record{Op: "allreduce"})
	if r.Len() != 0 || r.Records() != nil || r.Summarize() != nil {
		t.Fatal("nil recorder misbehaved")
	}
	r.Reset()
	var sb strings.Builder
	r.Dump(&sb)
	if sb.Len() != 0 {
		t.Fatal("nil dump wrote output")
	}
}

func TestAddAndSummarize(t *testing.T) {
	r := New()
	r.Add(Record{Op: "allreduce", Path: "ccl", Bytes: 100, Duration: 5 * time.Microsecond})
	r.Add(Record{Op: "allreduce", Path: "ccl", Bytes: 200, Duration: 7 * time.Microsecond})
	r.Add(Record{Op: "allreduce", Path: "mpi", Bytes: 10, Duration: time.Microsecond})
	r.Add(Record{Op: "bcast", Path: "mpi", Bytes: 50, Duration: 30 * time.Microsecond})
	if r.Len() != 4 {
		t.Fatalf("Len = %d", r.Len())
	}
	sums := r.Summarize()
	if len(sums) != 3 {
		t.Fatalf("summaries = %d", len(sums))
	}
	// Sorted by total time descending: bcast/mpi first.
	if sums[0].Op != "bcast" || sums[0].Total != 30*time.Microsecond {
		t.Fatalf("first summary = %+v", sums[0])
	}
	if sums[1].Op != "allreduce" || sums[1].Path != "ccl" || sums[1].Count != 2 || sums[1].Bytes != 300 {
		t.Fatalf("second summary = %+v", sums[1])
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

func TestChromeTraceRoundTrip(t *testing.T) {
	r := New()
	r.Add(Record{Op: "allreduce", Path: "ccl", Backend: "nccl-2.18.3", Rank: 3,
		Bytes: 4096, Start: 10 * time.Microsecond, Duration: 55 * time.Microsecond})
	r.Add(Record{Op: "bcast", Path: "mpi", Backend: "nccl", Rank: 0,
		Bytes: 64, Start: 100 * time.Microsecond, Duration: 7 * time.Microsecond})
	var sb strings.Builder
	if err := r.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ParseChromeTrace([]byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("round trip produced %d records", len(back))
	}
	if back[0].Op != "allreduce" || back[0].Rank != 3 || back[0].Bytes != 4096 ||
		back[0].Start != 10*time.Microsecond || back[0].Duration != 55*time.Microsecond {
		t.Fatalf("record 0 = %+v", back[0])
	}
	if back[1].Backend != "nccl" {
		t.Fatalf("record 1 backend = %q", back[1].Backend)
	}
}

func TestParseChromeTraceRejectsGarbage(t *testing.T) {
	if _, err := ParseChromeTrace([]byte("{broken")); err == nil {
		t.Fatal("garbage accepted")
	}
}
