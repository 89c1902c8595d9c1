//go:build !race

// The race detector instruments allocations, so the zero-alloc pin in this
// file only holds in a normal build.

package elem

import "testing"

// The F32 and F64 sums run on every gradient allreduce step, so their
// dispatch must stay allocation-free on both the scalar and the vector
// path: a slice passed through an interface or a closure that escapes would
// put the allocator back on the reduce.
func TestSumAllocs(t *testing.T) {
	const count = 1000 // vector blocks plus a scalar tail
	sumPaths(t, func(t *testing.T) {
		for _, k := range []Kind{F32, F64} {
			sz := count * k.Size()
			dst, a, b := aligned(sz, 0), aligned(sz, 0), aligned(sz, 0)
			if n := testing.AllocsPerRun(100, func() { Reduce(OpSum, k, dst, a, count) }); n != 0 {
				t.Errorf("%s Reduce sum allocates %.2f objects per call; want 0", kindName[k], n)
			}
			if n := testing.AllocsPerRun(100, func() { ReduceTo(OpSum, k, dst, a, b, count) }); n != 0 {
				t.Errorf("%s ReduceTo sum allocates %.2f objects per call; want 0", kindName[k], n)
			}
			// The owner pass of an 8-member ring, in place; its scratch is
			// made by the warm-up call and reused after.
			segs := make([][]byte, 8)
			for i := range segs {
				segs[i] = aligned(sz, 0)
			}
			var scratch [][]byte
			if n := testing.AllocsPerRun(100, func() { ReduceChain(OpSum, k, segs, segs, count, &scratch) }); n != 0 {
				t.Errorf("%s ReduceChain sum allocates %.2f objects per call; want 0", kindName[k], n)
			}
			// The fan-in of a 16-rank node into its root, in place; its
			// scratch is kept from the warm-up call as well.
			ins := make([][]byte, 16)
			for i := range ins {
				ins[i] = aligned(sz, 0)
			}
			if n := testing.AllocsPerRun(100, func() { ReduceTree(OpSum, k, ins[0], ins, count, &scratch) }); n != 0 {
				t.Errorf("%s ReduceTree sum allocates %.2f objects per call; want 0", kindName[k], n)
			}
		}
	})
}
