package elem

import "unsafe"

// fuseBlock is the byte size of one block of the pairwise chain: a few
// blocks of it (a member's input, the running partial, the next partial)
// stay in a core's L2 cache while the chain works on them.
const fuseBlock = 64 << 10

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
// fuseBlock blocks through the two blocks of scratch, made at first need,
// whose ReduceTo steps give the same bits. The result is byte-identical on
// both paths.
func ReduceChain(op Op, k Kind, outs, ins [][]byte, count int, scratch *[2][]byte) {
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
func reduceChainPairwise(op Op, k Kind, outs, ins [][]byte, from, to int, scratch *[2][]byte) {
	m := len(ins)
	if m > 2 && scratch[0] == nil {
		*scratch = [2][]byte{make([]byte, fuseBlock), make([]byte, fuseBlock)}
	}
	sz := k.Size()
	for lo := from; lo < to; lo += fuseBlock {
		hi := min(lo+fuseBlock, to)
		cnt := (hi - lo) / sz
		acc := ins[1][lo:hi]
		for i := 2; i < m; i++ {
			next := scratch[i%2][:hi-lo]
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
