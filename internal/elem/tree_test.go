package elem

import (
	"fmt"
	"testing"
)

// treeRef is ReduceTree's specification, the binomial reduction hop by hop
// as the tree schedule ran it before it was one pass: member j's partial is
// its input until its first child arrives, which it reduces out of place by
// a whole-length ReduceTo into a fresh buffer (shifted like out for member
// 0, so that every step takes the kernel path ReduceTree's step takes);
// each later child is reduced into that buffer by Reduce, the member's own
// side on the left.
func treeRef(op Op, k Kind, ins [][]byte, count, outShift int) []byte {
	m, n := len(ins), count*k.Size()
	parts := make([][]byte, m)
	for j := m - 1; j >= 0; j-- {
		parts[j] = ins[j][:n]
		for mask := 1; j&mask == 0 && j+mask < m; mask <<= 1 {
			if mask > 1 {
				Reduce(op, k, parts[j], parts[j+mask], count)
				continue
			}
			shift := 0
			if j == 0 {
				shift = outShift
			}
			dst := aligned(n, shift)
			ReduceTo(op, k, dst, parts[j], parts[j+1], count)
			parts[j] = dst
		}
	}
	res := aligned(n, outShift)
	copy(res, parts[0])
	return res
}

// treeCase runs ReduceTree on m inputs of count elements filled from
// reduceVals and checks out against treeRef. Variants: 0 reduces into
// ins[0], as a tree root reducing in place does, 1 into a fresh out, 2
// into ins[0] with another input misaligned by a byte, 3 into a fresh,
// misaligned out.
func treeCase(t *testing.T, op Op, k Kind, m, count, variant int, scratch *[][]byte) {
	t.Helper()
	sz := count * k.Size()
	ins := make([][]byte, m)
	shifts := make([]int, m)
	if variant == 2 && m > 1 {
		shifts[1+count%(m-1)] = 1
	}
	for i := range ins {
		ins[i] = aligned(sz, shifts[i])
		for e := 0; e < count; e++ {
			Set(k, ins[i], e, reduceVals[(e*5+i*3)%len(reduceVals)], reduceVals[(e+i*7)%len(reduceVals)])
		}
	}
	out, outShift := ins[0], shifts[0]
	if variant == 1 || variant == 3 {
		if variant == 3 {
			outShift = 1
		}
		out = aligned(sz, outShift)
		for e := 0; e < count; e++ {
			Set(k, out, e, 99, 99) // stale contents must not leak through
		}
	}
	want := treeRef(op, k, ins, count, outShift)
	ReduceTree(op, k, out, ins, count, scratch)
	if string(out) != string(want) {
		t.Fatalf("%s %s m %d count %d variant %d: tree % x, hop by hop % x",
			kindName[k], opName[op], m, count, variant, out, want)
	}
}

// ReduceTree must equal the hop-by-hop binomial reduction byte for byte on
// both sum paths: every kind and operator, group sizes from 1 to 16 (full
// and ragged trees), every tail length of the scalar and vector kernels,
// misaligned operands, out aliasing ins[0] and out apart from the inputs,
// and the delicate values, NaN payloads included. Runs over several
// fuseBlocks cross the tree's block edges.
func TestReduceTreeMatchesPairwise(t *testing.T) {
	sumPaths(t, func(t *testing.T) {
		var scratch [][]byte
		for _, k := range []Kind{U8, I32, I64, F16, F32, F64, C128} {
			for _, op := range []Op{OpSum, OpProd, OpMax, OpMin} {
				if k == C128 && (op == OpMax || op == OpMin) {
					continue // undefined; Reduce panics
				}
				for _, m := range []int{1, 2, 3, 5, 8, 9, 12, 16} {
					for _, count := range reduceCounts {
						for variant := 0; variant < 4; variant++ {
							treeCase(t, op, k, m, count, variant, &scratch)
						}
					}
				}
			}
		}
		for _, k := range []Kind{I32, F32, F64} {
			for _, op := range []Op{OpSum, OpMax} {
				for variant := 0; variant < 4; variant++ {
					treeCase(t, op, k, 9, 3*fuseBlock/k.Size()+37, variant, &scratch)
				}
			}
		}
	})
}

// FuzzReduceTree holds ReduceTree to the hop-by-hop binomial reduction on
// arbitrary bits (signaling NaNs included), kinds, operators, group sizes,
// counts and operand offsets, on either sum path.
func FuzzReduceTree(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0xc0, 0x7f, 0x45, 0x23, 0xc1, 0x7f, 1, 0, 0, 0x80}, uint8(F32), uint8(OpSum), uint8(7), uint16(75), uint16(0), false, false)
	f.Add([]byte{0xde, 0xbc, 0x0a, 0, 0, 0, 0xf8, 0x7f, 1, 0, 0, 0, 0, 0, 0xf8, 0xff}, uint8(F64), uint8(OpSum), uint8(2), uint16(37), uint16(0), true, false)
	f.Add([]byte{1, 2, 3}, uint8(I32), uint8(OpMax), uint8(11), uint16(33), uint16(0x155), false, true)
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
		n, cnt := 1+int(m)%16, int(count%1100)
		sz := cnt * k.Size()
		// Bit i of shifts misaligns input i; bit 15 the fresh out.
		ins := make([][]byte, n)
		for i := range ins {
			ins[i] = aligned(sz, int(shifts>>i&1))
			for j := range ins[i] {
				ins[i][j] = data[(i*sz+j)%len(data)]
			}
		}
		out, outShift := ins[0], int(shifts&1)
		if !alias {
			outShift = int(shifts >> 15 & 1)
			out = aligned(sz, outShift)
		}
		want := treeRef(o, k, ins, cnt, outShift)
		var scratch [][]byte
		ReduceTree(o, k, out, ins, cnt, &scratch)
		if string(out) != string(want) {
			t.Fatalf("%s %s m %d count %d: tree % x, hop by hop % x", kindName[k], opName[o], n, cnt, out, want)
		}
	})
}

// BenchmarkReduceTree measures the intra-node fan-in of one 1 MiB chunk
// over an 8-rank node, float32 sum, from inputs rotated through sets
// totalling 256 MiB (each pass reads memory): ReduceTree ("fused") against
// the hop-by-hop tree of whole-chunk ReduceTo and Reduce steps it
// replaced. The byte rate counts the m inputs.
func BenchmarkReduceTree(b *testing.B) {
	const m, chunk, sets = 8, 1 << 20, 32
	groups := make([][][]byte, sets)
	for s := range groups {
		groups[s] = make([][]byte, m)
		for i := range groups[s] {
			groups[s][i] = aligned(chunk, 0)
			for e := 0; e < chunk/4; e++ {
				Set(F32, groups[s][i], e, float64((e+i)%1000)*1e-3, 0)
			}
		}
	}
	count := chunk / 4
	for _, path := range []string{"hop", "fused"} {
		b.Run(fmt.Sprintf("f32/m=%d/%dKiB/%s", m, chunk>>10, path), func(b *testing.B) {
			var scratch [][]byte
			parts := make([][]byte, m)
			for j := range parts {
				parts[j] = aligned(chunk, 0)
			}
			b.SetBytes(m * chunk)
			for i := 0; i < b.N; i++ {
				g := groups[i%sets]
				if path == "fused" {
					ReduceTree(OpSum, F32, g[0], g, count, &scratch)
					continue
				}
				for j := m - 1; j >= 0; j-- {
					cur := g[j]
					for mask := 1; j&mask == 0 && j+mask < m; mask <<= 1 {
						child := g[j+mask]
						if (j+mask)&1 == 0 {
							child = parts[j+mask]
						}
						if mask == 1 {
							ReduceTo(OpSum, F32, parts[j], cur, child, count)
							cur = parts[j]
						} else {
							Reduce(OpSum, F32, cur, child, count)
						}
					}
				}
			}
		})
	}
}
