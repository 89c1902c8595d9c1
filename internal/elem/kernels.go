package elem

type float interface{ ~float32 | ~float64 }

// reduceFloat is the typed kernel behind Reduce for F32 and F64. Max and
// min replace d[i] only on a strict comparison, so a NaN source leaves the
// destination as is and -0 vs +0 keeps the destination, exactly as the
// portable path does (the max and min builtins would differ on both).
func reduceFloat[T float](op Op, d, s []T) {
	d = d[:len(s)]
	switch op {
	case OpSum:
		sumTo(d, s)
	case OpProd:
		for i, v := range s {
			d[i] *= v
		}
	case OpMax:
		for i, v := range s {
			if v > d[i] {
				d[i] = v
			}
		}
	case OpMin:
		for i, v := range s {
			if v < d[i] {
				d[i] = v
			}
		}
	}
}

// vectorSum routes the F32 and F64 sums through the AVX2 bodies of
// sum_amd64.s, which cover every full 32-float32 (16-float64) block and
// leave the rest to sumTo and sumOf. It is set once from the CPU; tests
// clear it to pin the scalar path, which is also the only path off amd64.
var vectorSum = haveAVX2()

// sumTo is the kernel of every gradient allreduce and the scalar fallback
// of the vector bodies: eight independent updates per iteration over
// fixed-capacity windows of both operands, which lets the compiler drop
// the per-element bounds checks. A scalar loop finishes the len % 8 tail.
func sumTo[T float](d, s []T) {
	n := len(s)
	d = d[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		dd, ss := d[i:i+8:i+8], s[i:i+8:i+8]
		dd[0] += ss[0]
		dd[1] += ss[1]
		dd[2] += ss[2]
		dd[3] += ss[3]
		dd[4] += ss[4]
		dd[5] += ss[5]
		dd[6] += ss[6]
		dd[7] += ss[7]
	}
	for ; i < n; i++ {
		d[i] += s[i]
	}
}

// sumOf is sumTo out of place, d = a + b, with the same unrolling; a stays
// the left operand, as the destination is in sumTo.
func sumOf[T float](d, a, b []T) {
	n := len(b)
	d, a = d[:n], a[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		dd, aa, bb := d[i:i+8:i+8], a[i:i+8:i+8], b[i:i+8:i+8]
		dd[0] = aa[0] + bb[0]
		dd[1] = aa[1] + bb[1]
		dd[2] = aa[2] + bb[2]
		dd[3] = aa[3] + bb[3]
		dd[4] = aa[4] + bb[4]
		dd[5] = aa[5] + bb[5]
		dd[6] = aa[6] + bb[6]
		dd[7] = aa[7] + bb[7]
	}
	for ; i < n; i++ {
		d[i] = a[i] + b[i]
	}
}
