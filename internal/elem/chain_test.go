package elem

import (
	"fmt"
	"testing"
)

// chainRef is ReduceChain's specification, the owner pass of the ring
// before it was one kernel: the partial starts as ins[1], each next input
// is reduced in on its left by a whole-length ReduceTo into a fresh
// buffer, and the last step, op(ins[0], partial), lands in a buffer shifted
// like the first out, so that every step takes the kernel path
// ReduceChain's pairwise chain takes (the typed and portable paths may keep
// different NaN payloads of a product).
func chainRef(op Op, k Kind, ins [][]byte, count, outShift int) []byte {
	n := count * k.Size()
	acc := ins[1][:n]
	for _, in := range ins[2:] {
		next := aligned(n, 0)
		ReduceTo(op, k, next, in, acc, count)
		acc = next
	}
	res := aligned(n, outShift)
	ReduceTo(op, k, res, ins[0], acc, count)
	return res
}

// chainCase runs ReduceChain on m inputs of count elements filled from
// reduceVals and checks every out against chainRef. Variants: 0 reduces in
// place (outs is ins, as the ring's owner pass does), 1 into two fresh
// outs, 2 in place with one input misaligned by a byte, 3 into fresh outs
// of which the first is misaligned.
func chainCase(t *testing.T, op Op, k Kind, m, count, variant int, scratch *[][]byte) {
	t.Helper()
	sz := count * k.Size()
	ins := make([][]byte, m)
	shifts := make([]int, m)
	if variant == 2 {
		shifts[count%m] = 1
	}
	for i := range ins {
		ins[i] = aligned(sz, shifts[i])
		for e := 0; e < count; e++ {
			Set(k, ins[i], e, reduceVals[(e*5+i*3)%len(reduceVals)], reduceVals[(e+i*7)%len(reduceVals)])
		}
	}
	outs, outShift := ins, shifts[0]
	if variant == 1 || variant == 3 {
		if variant == 3 {
			outShift = 1
		}
		outs = [][]byte{aligned(sz, outShift), aligned(sz, 0)}
		for _, o := range outs {
			for e := 0; e < count; e++ {
				Set(k, o, e, 99, 99) // stale contents must not leak through
			}
		}
	}
	want := chainRef(op, k, ins, count, outShift)
	ReduceChain(op, k, outs, ins, count, scratch)
	for j, o := range outs {
		if string(o) != string(want) {
			t.Fatalf("%s %s m %d count %d variant %d: out %d % x, pairwise % x",
				kindName[k], opName[op], m, count, variant, j, o, want)
		}
	}
}

// ReduceChain must equal the pairwise chain byte for byte on both sum
// paths: every kind and operator, ring sizes from 2 to 12, every tail
// length of the scalar and vector kernels, misaligned operands (which
// take the pairwise chain), outs aliasing ins and outs apart from them,
// and the delicate values, NaN payloads included. Runs over two fuseBlocks
// cross the chain's block edges.
func TestReduceChainMatchesPairwise(t *testing.T) {
	sumPaths(t, func(t *testing.T) {
		var scratch [][]byte
		for _, k := range []Kind{U8, I32, I64, F16, F32, F64, C128} {
			for _, op := range []Op{OpSum, OpProd, OpMax, OpMin} {
				if k == C128 && (op == OpMax || op == OpMin) {
					continue // undefined; Reduce panics
				}
				for _, m := range []int{2, 3, 5, 8, 12} {
					for _, count := range reduceCounts {
						for variant := 0; variant < 4; variant++ {
							chainCase(t, op, k, m, count, variant, &scratch)
						}
					}
				}
			}
		}
		for _, k := range []Kind{I32, F32, F64} {
			for _, op := range []Op{OpSum, OpMax} {
				for variant := 0; variant < 4; variant++ {
					chainCase(t, op, k, 5, 2*fuseBlock/k.Size()+37, variant, &scratch)
				}
			}
		}
	})
}

// FuzzReduceChain holds ReduceChain to the pairwise chain on arbitrary
// bits (signaling NaNs included), kinds, operators, ring sizes, counts and
// operand offsets, on either sum path.
func FuzzReduceChain(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0xc0, 0x7f, 0x45, 0x23, 0xc1, 0x7f, 1, 0, 0, 0x80}, uint8(F32), uint8(OpSum), uint8(6), uint16(75), uint16(0), false, false)
	f.Add([]byte{0xde, 0xbc, 0x0a, 0, 0, 0, 0xf8, 0x7f, 1, 0, 0, 0, 0, 0, 0xf8, 0xff}, uint8(F64), uint8(OpSum), uint8(3), uint16(37), uint16(0), true, false)
	f.Add([]byte{1, 2, 3}, uint8(I32), uint8(OpMax), uint8(10), uint16(33), uint16(0x155), false, true)
	f.Add([]byte{0x7e, 0x00, 0x3c}, uint8(F16), uint8(OpProd), uint8(0), uint16(5), uint16(2), true, false)
	f.Fuzz(func(t *testing.T, data []byte, kind, op, m uint8, count, shifts uint16, alias, scalar bool) {
		k, o := Kind(kind%7), Op(op%4)
		if k == C128 && (o == OpMax || o == OpMin) {
			return
		}
		if len(data) == 0 {
			data = []byte{0}
		}
		defer func(v bool) { vectorSum = v }(vectorSum)
		vectorSum = vectorSum && !scalar
		n, cnt := 2+int(m)%11, int(count%1100)
		sz := cnt * k.Size()
		// Bit i of shifts misaligns input i; bit 12 the first fresh out.
		ins := make([][]byte, n)
		for i := range ins {
			ins[i] = aligned(sz, int(shifts>>i&1))
			for j := range ins[i] {
				ins[i][j] = data[(i*sz+j)%len(data)]
			}
		}
		outs, outShift := ins, int(shifts&1)
		if !alias {
			outShift = int(shifts >> 12 & 1)
			outs = [][]byte{aligned(sz, outShift), aligned(sz, 0), aligned(sz, 0)}
		}
		want := chainRef(o, k, ins, cnt, outShift)
		var scratch [][]byte
		ReduceChain(o, k, outs, ins, cnt, &scratch)
		for j, out := range outs {
			if string(out) != string(want) {
				t.Fatalf("%s %s m %d count %d: out %d % x, pairwise % x", kindName[k], opName[o], n, cnt, j, out, want)
			}
		}
	})
}

// BenchmarkReduceChain measures the ring allreduce's owner pass at the
// train workload's shape: m = 8 float32 segments of 256 KiB reduced and
// the sum written back into all eight, by ReduceChain ("kernel", the
// one-pass vector body on AVX2 hosts) and by the pairwise chain it
// replaced. "hot" reruns one set of segments (2 MiB, cache resident);
// "cold" rotates through sets totalling 256 MiB, so each pass reads and
// writes memory. The byte rate counts the m input segments.
func BenchmarkReduceChain(b *testing.B) {
	const m, seg = 8, 256 << 10
	for _, sets := range []int{1, 128} {
		temp := "hot"
		if sets > 1 {
			temp = "cold"
		}
		groups := make([][][]byte, sets)
		for s := range groups {
			groups[s] = make([][]byte, m)
			for i := range groups[s] {
				groups[s][i] = aligned(seg, 0)
				for e := 0; e < seg/4; e++ {
					Set(F32, groups[s][i], e, float64((e+i)%1000)*1e-3, 0)
				}
			}
		}
		count := seg / 4
		for _, path := range []string{"pairwise", "kernel"} {
			b.Run(fmt.Sprintf("f32/m=%d/%dKiB/%s/%s", m, seg>>10, temp, path), func(b *testing.B) {
				var scratch [][]byte
				b.SetBytes(m * seg)
				for i := 0; i < b.N; i++ {
					g := groups[i%sets]
					if path == "kernel" {
						ReduceChain(OpSum, F32, g, g, count, &scratch)
					} else {
						reduceChainPairwise(OpSum, F32, g, g, 0, seg, &scratch)
					}
				}
			})
		}
	}
}
