package main

import (
	"reflect"
	"testing"

	"mpixccl/internal/device"
)

func sequence(sh collShape, seed uint64, n int) []collStep {
	var out []collStep
	for p := 0; len(out) < n; p++ {
		out = append(out, sh.pass(seed, p)...)
	}
	return out[:n]
}

func TestSequenceIsSeeded(t *testing.T) {
	for _, sh := range []collShape{latencyShape, bandwidthShape} {
		a, b := sequence(sh, 1, 200), sequence(sh, 1, 200)
		if !reflect.DeepEqual(a, b) {
			t.Fatal("same seed gave different op sequences")
		}
		if reflect.DeepEqual(a, sequence(sh, 2, 200)) {
			t.Fatal("seeds 1 and 2 gave the same op sequence")
		}
	}
}

func TestSequenceCoversEveryBinEvenly(t *testing.T) {
	for _, sh := range []collShape{latencyShape, bandwidthShape} {
		grid := len(sh.ops) * len(sh.bins)
		seen := map[collStep]int{}
		for _, st := range sequence(sh, 7, 3*grid) {
			seen[st]++
		}
		if len(seen) != grid {
			t.Fatalf("%d of %d (op, size) bins drawn", len(seen), grid)
		}
		for st, n := range seen {
			if n != 3 {
				t.Errorf("%v drawn %d times in 3 passes, want 3", st, n)
			}
		}
	}
}

func TestCountKeepsBuffersInBounds(t *testing.T) {
	const n = 16
	for _, sh := range []collShape{latencyShape, bandwidthShape} {
		maxB := sh.bins[len(sh.bins)-1]
		for _, op := range sh.ops {
			for _, b := range sh.bins {
				st := collStep{op, b}
				c := st.count(n)
				need := int64(c) * 4
				if blockOp(op) {
					need *= n
				}
				if c < 1 || need > maxB {
					t.Errorf("%v: count %d needs %d B of a %d B buffer", st, c, need, maxB)
				}
			}
		}
	}
}

func TestValuesSumExactly(t *testing.T) {
	const salt = 12345
	for j := 0; j < 1000; j++ {
		var exact int64
		for r := 0; r < 32; r++ {
			v := value(salt, r, j)
			if v < 0 || v >= 1<<19 || v != float32(int64(v)) {
				t.Fatalf("value(%d, %d) = %v, not an integer in [0, 2^19)", r, j, v)
			}
			exact += int64(v)
		}
		if got := sumValues(salt, 32, j); int64(got) != exact {
			t.Fatalf("sum over 32 ranks at %d = %v, want %d", j, got, exact)
		}
	}
}

// TestCheckerFlagsCorruption fills an allreduce and an alltoall output with
// the right answer, then corrupts one element the check looks at.
func TestCheckerFlagsCorruption(t *testing.T) {
	const n, me, salt = 16, 3, 99
	for _, verify := range []bool{false, true} {
		e := &env{seed: 5, verify: verify}
		for _, st := range []collStep{{opAllreduce, 64 << 10}, {opAlltoall, 64 << 10}, {opBcast, 8}} {
			c := st.count(n)
			outLen := c
			if blockOp(st.op) {
				outLen = n * c
			}
			recv := device.NewHostBuffer(int64(outLen) * 4)
			for i := 0; i < outLen; i++ {
				var v float32
				switch st.op {
				case opAllreduce:
					v = sumValues(salt, n, i)
				case opAlltoall:
					v = value(salt, i/c, me*c+i%c)
				case opBcast:
					v = value(salt, 0, i)
				}
				recv.SetFloat32(i, v)
			}
			coords := []uint64{42, me}
			var pos []int
			if !checkColl(e, salt, me, n, st, recv, &pos, coords...) {
				t.Fatalf("verify=%v %v: correct output rejected", verify, st)
			}
			bad := positions(nil, verify, outLen, e.seed, coords...)[0]
			recv.SetFloat32(bad, recv.Float32(bad)+1)
			if checkColl(e, salt, me, n, st, recv, &pos, coords...) {
				t.Errorf("verify=%v %v: corrupted element %d not flagged", verify, st, bad)
			}
		}
	}
}
