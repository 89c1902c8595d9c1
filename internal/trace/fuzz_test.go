package trace

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// FuzzParseChromeTrace feeds arbitrary bytes to ParseChromeTrace, seeded
// with real WriteChromeTrace output. It must never panic, and whatever it
// accepts must survive a write/parse round trip unchanged.
func FuzzParseChromeTrace(f *testing.F) {
	r := New()
	r.Add(Record{Op: "allreduce", Path: "ccl", Backend: "nccl-2.18.3", Rank: 3,
		Bytes: 4096, Start: 1001 * time.Nanosecond, Duration: 55 * time.Microsecond})
	r.Add(Record{Op: "bcast", Path: "mpi", Backend: "nccl", Rank: -1,
		Bytes: 64, Start: 100 * time.Microsecond, Duration: 7})
	var seed bytes.Buffer
	if err := r.WriteChromeTrace(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"name":"x","ts":1e300,"args":{"bytes":"12abc"}}]`))
	// 1001.2 ns reads as 1001 ns, written as 1.001 µs, which is
	// 1000.9999… ns in floating point: truncating would lose a nanosecond.
	f.Add([]byte(`[{"name":"x","ts":1.0012,"dur":-3.0021}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ParseChromeTrace(data)
		if err != nil {
			return
		}
		w := New()
		for _, rec := range recs {
			w.Add(rec)
		}
		var out bytes.Buffer
		if err := w.WriteChromeTrace(&out); err != nil {
			t.Fatalf("write accepted records: %v", err)
		}
		back, err := ParseChromeTrace(out.Bytes())
		if err != nil {
			t.Fatalf("re-parse written records: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(recs, back) {
			t.Fatalf("round trip changed records:\n got %+v\nwant %+v", back, recs)
		}
	})
}
