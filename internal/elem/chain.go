package elem

import (
	"math/bits"
	"unsafe"
)

// fuseBlock is the byte size of one block of the pairwise chain and of the
// tree: a few blocks of it (the inputs a step reads, the partial it
// writes) stay in a core's L2 cache while the pass works on them.
const fuseBlock = 64 << 10

// blocks returns the first n fuseBlock-sized blocks of scratch, making the
// missing ones: a caller that keeps scratch across passes allocates only
// at its first pass of each depth.
func blocks(scratch *[][]byte, n int) [][]byte {
	for len(*scratch) < n {
		*scratch = append(*scratch, make([]byte, fuseBlock))
	}
	return (*scratch)[:n]
}

// ReduceChain reduces m = len(ins) ≥ 2 operands of count elements in the
// order of a ring's reduce-scatter and writes the result into every out:
// the partial starts as ins[1], each next input is reduced in on the left,
// acc = op(ins[i], acc) for i = 2…m−1, and the result is op(ins[0], acc).
// An out may be the in of the same index (same start); otherwise outs and
// ins must not overlap. OpMax and OpMin on C128 panic, as in Reduce.
//
// F32 and F64 sums over aligned little-endian operands run one pass on
// AVX2 hosts (sumChainF32, sumChainF64): each vector of elements is loaded
// from every input once, summed in registers and stored to every out, so
// no partial touches memory. Every other case, and the vector bodies'
// tail of fewer than 32 (16) elements, runs the pairwise chain in
// fuseBlock blocks through two blocks of scratch, made at first need,
// whose ReduceTo steps give the same bits. The result is byte-identical on
// both paths.
func ReduceChain(op Op, k Kind, outs, ins [][]byte, count int, scratch *[][]byte) {
	if len(ins) < 2 {
		panic("elem: ReduceChain needs at least two inputs")
	}
	if count == 0 || len(outs) == 0 {
		return
	}
	sz := k.Size()
	// Bounds check every operand up front, and note whether all of them
	// are element-aligned, as view requires of a typed kernel.
	aligned := hostLittleEndian
	for _, ops := range [2][][]byte{ins, outs} {
		for _, b := range ops {
			_ = b[count*sz-1]
			aligned = aligned && uintptr(unsafe.Pointer(&b[0]))%uintptr(sz) == 0
		}
	}
	n := 0
	if op == OpSum && vectorSum && aligned {
		switch k {
		case F32:
			n = sumChainF32(outs, ins, count)
		case F64:
			n = sumChainF64(outs, ins, count)
		}
	}
	if n < count {
		reduceChainPairwise(op, k, outs, ins, n*sz, count*sz, scratch)
	}
}

// reduceChainPairwise is ReduceChain's portable body over the byte range
// [from, to) of every operand: per fuseBlock block, m−2 out-of-place
// ReduceTo steps through the two scratch blocks, one last step into
// outs[0], and a copy of the finished block to every other out while it is
// still in cache.
func reduceChainPairwise(op Op, k Kind, outs, ins [][]byte, from, to int, scratch *[][]byte) {
	m := len(ins)
	var tmp [][]byte
	if m > 2 {
		tmp = blocks(scratch, 2)
	}
	sz := k.Size()
	for lo := from; lo < to; lo += fuseBlock {
		hi := min(lo+fuseBlock, to)
		cnt := (hi - lo) / sz
		acc := ins[1][lo:hi]
		for i := 2; i < m; i++ {
			next := tmp[i%2][:hi-lo]
			ReduceTo(op, k, next, ins[i][lo:hi], acc, cnt)
			acc = next
		}
		res := outs[0][lo:hi]
		ReduceTo(op, k, res, ins[0][lo:hi], acc, cnt)
		for _, o := range outs[1:] {
			copy(o[lo:hi], res)
		}
	}
}

// ReduceTree reduces m = len(ins) ≥ 1 operands of count elements in the
// order of a binomial reduction toward member 0 and writes the result into
// out. Member j's partial starts as ins[j]; for mask = 1, 2, 4, … while
// j&mask == 0 and j+mask < m, it becomes op(partial, partial(j+mask)), the
// member's own side on the left, as each tree hop reduces a child's
// partial into its parent's. The result is partial(0). out may be ins[0]
// (same start); otherwise it must not overlap any input. OpMax and OpMin
// on C128 panic, as in Reduce.
//
// The tree runs in fuseBlock blocks through ReduceTo and Reduce: per
// block, members are visited from m−1 down to 0 and each member's partial
// pops its children's partials off a stack, the nearest child first, so
// no block leaves the cache before the tree is done with it. A leaf's
// partial is its input itself; an inner member j > 0 writes its partial
// into the scratch block of its level (the trailing zeros of j), made at
// first need, and member 0 writes straight into out. Partials on the stack
// are of distinct levels, so one block per level suffices.
func ReduceTree(op Op, k Kind, out []byte, ins [][]byte, count int, scratch *[][]byte) {
	m := len(ins)
	if m == 0 {
		panic("elem: ReduceTree needs at least one input")
	}
	if count == 0 {
		return
	}
	n := count * k.Size()
	_ = out[n-1]
	for _, b := range ins {
		_ = b[n-1]
	}
	if m == 1 {
		copy(out[:n], ins[0][:n])
		return
	}
	// Inner members j > 0 have levels 1 … bits.Len(m−1)−1.
	levels := blocks(scratch, bits.Len(uint(m-1))-1)
	var stack [bits.UintSize][]byte
	for lo := 0; lo < n; lo += fuseBlock {
		hi := min(lo+fuseBlock, n)
		cnt := (hi - lo) / k.Size()
		top := 0
		for j := m - 1; j >= 0; j-- {
			part := ins[j][lo:hi]
			for mask := 1; j&mask == 0 && j+mask < m; mask <<= 1 {
				top--
				child := stack[top]
				if mask > 1 {
					Reduce(op, k, part, child, cnt)
					continue
				}
				dst := out[lo:hi]
				if j > 0 {
					dst = levels[bits.TrailingZeros(uint(j))-1][:hi-lo]
				}
				ReduceTo(op, k, dst, part, child, cnt)
				part = dst
			}
			stack[top] = part
			top++
		}
	}
}
