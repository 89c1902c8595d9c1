package msccl

import (
	"reflect"
	"testing"

	"mpixccl/internal/ccl"
)

// FuzzParseAlgo feeds arbitrary text to the schedule parser. It must never
// panic, and any schedule it accepts must survive FormatAlgo → ParseAlgo
// unchanged: the text format is the schedule's only serialization.
func FuzzParseAlgo(f *testing.F) {
	f.Add(sampleSchedule)
	f.Add(FormatAlgo(RingAllReduce(4, 256, 1<<20)))
	f.Add(FormatAlgo(ccl.AllPairsAllReduce(4, 0, 0)))
	f.Add("algo a allreduce ranks=2 chunks=1 min=-1\n") // rejected: negative window
	f.Fuzz(func(t *testing.T, text string) {
		a, err := ParseAlgo(text)
		if err != nil {
			return
		}
		out := FormatAlgo(a)
		back, err := ParseAlgo(out)
		if err != nil {
			t.Fatalf("formatted schedule does not parse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(a, back) {
			t.Fatalf("round trip changed the schedule:\n got %+v\nwant %+v", back, a)
		}
	})
}
