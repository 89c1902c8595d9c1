package elem

// The vector sum bodies live in sum_amd64.s. Each adds over the largest
// multiple of 32 float32s (16 float64s) of its operands, four 256-bit
// registers per iteration, and returns that element count; the caller
// finishes the tail with the scalar kernel (ReduceChain with its pairwise
// chain, whose steps are those kernels). Every output lane is one IEEE
// add of the same two operands in the same order as the scalar loop (the
// left operand is the first source of VADDPS/VADDPD, as it is of
// ADDSS/ADDSD the compiler emits there), so the results are bit-identical,
// down to which payload a NaN + NaN keeps in a normal build (Go does not
// fix that choice; under -race the scalar loop may commute the add). They
// must only run when haveAVX2 reports true, and d must be at least as long
// as the source operands.

//go:noescape
func sumToF32(d, s []float32) int

//go:noescape
func sumToF64(d, s []float64) int

//go:noescape
func sumOfF32(d, a, b []float32) int

//go:noescape
func sumOfF64(d, a, b []float64) int

// The chain bodies are ReduceChain's one-pass sums: per vector of
// elements, the partial is loaded from ins[1], each of ins[2] up to
// ins[m−1] and then ins[0] is added on its left, and the sum is stored into
// every out, over the largest multiple of 32 float32s (16 float64s) of n.
// They return that count. Every operand must hold n elements, outs must be
// non-empty, ins must hold at least two operands, and an out may alias
// only the in of the same index.

//go:noescape
func sumChainF32(outs, ins [][]byte, n int) int

//go:noescape
func sumChainF64(outs, ins [][]byte, n int) int

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32

// haveAVX2 reports whether the CPU has AVX2 (CPUID leaf 7, EBX bit 5) and
// the OS saves the YMM registers across context switches (OSXSAVE set and
// XCR0 enabling both the XMM and YMM state).
func haveAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmm, ymm = 1 << 1, 1 << 2
	if xgetbv0()&(xmm|ymm) != xmm|ymm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}
