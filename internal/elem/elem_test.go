package elem

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindSizes(t *testing.T) {
	want := map[Kind]int{U8: 1, I32: 4, I64: 8, F16: 2, F32: 4, F64: 8, C128: 16}
	for k, sz := range want {
		if k.Size() != sz {
			t.Errorf("kind %d size = %d, want %d", int(k), k.Size(), sz)
		}
	}
}

func TestUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Kind(99).Size()
}

func TestGetSetRoundTrip(t *testing.T) {
	cases := map[Kind][]float64{
		U8:   {0, 1, 100, 255},
		I32:  {0, 1, -1, 3, 1 << 20},
		I64:  {0, -5, 1 << 40},
		F16:  {0, 1, -1, 0.5, 1024},
		F32:  {0, 1.5, -2.25},
		F64:  {0, 3.14159, -1e100},
		C128: {0, 1, -2.5},
	}
	for k, vals := range cases {
		b := make([]byte, 16*k.Size())
		for i, v := range vals {
			Set(k, b, i, v, -v)
			re, im := Get(k, b, i)
			if re != v {
				t.Errorf("kind %d elem %d re = %v, want %v", int(k), i, re, v)
			}
			if k == C128 && im != -v {
				t.Errorf("C128 elem %d im = %v, want %v", i, im, -v)
			}
		}
	}
}

func TestU8Clamping(t *testing.T) {
	b := make([]byte, 2)
	Set(U8, b, 0, 300, 0)
	Set(U8, b, 1, -5, 0)
	if b[0] != 255 || b[1] != 0 {
		t.Fatalf("clamped to %d, %d", b[0], b[1])
	}
}

func TestFloat16RoundTripExactValues(t *testing.T) {
	for _, v := range []float64{0, 1, -1, 0.5, 2, 1024, 65504, -65504, 0.0009765625} {
		h := FloatToFloat16(v)
		if got := Float16ToFloat(h); got != v {
			t.Errorf("float16 round trip %v -> %v", v, got)
		}
	}
}

func TestFloat16Specials(t *testing.T) {
	if !math.IsInf(Float16ToFloat(FloatToFloat16(math.Inf(1))), 1) {
		t.Error("+inf lost")
	}
	if !math.IsInf(Float16ToFloat(FloatToFloat16(1e10)), 1) {
		t.Error("overflow should become +inf")
	}
	if !math.IsNaN(Float16ToFloat(FloatToFloat16(math.NaN()))) {
		t.Error("nan lost")
	}
	if Float16ToFloat(FloatToFloat16(1e-10)) != 0 {
		t.Error("deep underflow should flush to zero")
	}
}

// Property: any finite half value round-trips exactly through float64.
func TestFloat16RoundTripProperty(t *testing.T) {
	f := func(raw uint16) bool {
		v := Float16ToFloat(raw)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		return Float16ToFloat(FloatToFloat16(v)) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceOpsF64(t *testing.T) {
	mk := func(vals ...float64) []byte {
		b := make([]byte, len(vals)*8)
		for i, v := range vals {
			Set(F64, b, i, v, 0)
		}
		return b
	}
	read := func(b []byte, i int) float64 { re, _ := Get(F64, b, i); return re }

	dst := mk(1, -2, 3)
	Reduce(OpSum, F64, dst, mk(10, 20, 30), 3)
	if read(dst, 0) != 11 || read(dst, 1) != 18 || read(dst, 2) != 33 {
		t.Fatal("sum wrong")
	}
	dst = mk(2, 3, 4)
	Reduce(OpProd, F64, dst, mk(5, -1, 0.5), 3)
	if read(dst, 0) != 10 || read(dst, 1) != -3 || read(dst, 2) != 2 {
		t.Fatal("prod wrong")
	}
	dst = mk(1, 5)
	Reduce(OpMax, F64, dst, mk(3, 2), 2)
	if read(dst, 0) != 3 || read(dst, 1) != 5 {
		t.Fatal("max wrong")
	}
	dst = mk(1, 5)
	Reduce(OpMin, F64, dst, mk(3, 2), 2)
	if read(dst, 0) != 1 || read(dst, 1) != 2 {
		t.Fatal("min wrong")
	}
}

func TestReduceComplexProd(t *testing.T) {
	dst := make([]byte, 16)
	src := make([]byte, 16)
	Set(C128, dst, 0, 1, 2)
	Set(C128, src, 0, 3, -1)
	Reduce(OpProd, C128, dst, src, 1)
	re, im := Get(C128, dst, 0)
	if re != 5 || im != 5 { // (1+2i)(3-i) = 5+5i
		t.Fatalf("complex prod = %v+%vi", re, im)
	}
}

func TestReduceComplexMaxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Reduce(OpMax, C128, make([]byte, 16), make([]byte, 16), 1)
}

// Property: OpSum over I64 agrees with native integer addition for values
// that fit in the float64-exact range.
func TestReduceSumI64Property(t *testing.T) {
	f := func(a, b int32) bool {
		x := make([]byte, 8)
		y := make([]byte, 8)
		Set(I64, x, 0, float64(a), 0)
		Set(I64, y, 0, float64(b), 0)
		Reduce(OpSum, I64, x, y, 1)
		re, _ := Get(I64, x, 0)
		return re == float64(int64(a)+int64(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The specialized float32/float64 reduce paths must agree exactly with the
// generic elementwise path.
func TestSpecializedReduceMatchesGeneric(t *testing.T) {
	vals := []float64{0, 1, -1, 0.5, 3.25, -1e20, 1e-20, 7}
	for _, op := range []Op{OpSum, OpProd, OpMax, OpMin} {
		for _, k := range []Kind{F32, F64} {
			n := len(vals)
			dst := make([]byte, n*k.Size())
			src := make([]byte, n*k.Size())
			ref := make([]byte, n*k.Size())
			for i, v := range vals {
				Set(k, dst, i, v, 0)
				Set(k, ref, i, v, 0)
				Set(k, src, i, vals[(i+3)%n], 0)
			}
			Reduce(op, k, dst, src, n) // specialized
			// Generic reference via the scalar accessors.
			for i := 0; i < n; i++ {
				d, _ := Get(k, ref, i)
				s, _ := Get(k, src, i)
				var r float64
				switch op {
				case OpSum:
					r = d + s
				case OpProd:
					r = d * s
				case OpMax:
					r = d
					if s > d {
						r = s
					}
				case OpMin:
					r = d
					if s < d {
						r = s
					}
				}
				Set(k, ref, i, r, 0)
			}
			for i := 0; i < n; i++ {
				got, _ := Get(k, dst, i)
				want, _ := Get(k, ref, i)
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("kind %d op %d elem %d: %v != %v", int(k), int(op), i, got, want)
				}
			}
		}
	}
}

var (
	kindName = map[Kind]string{U8: "u8", I32: "i32", I64: "i64", F16: "f16", F32: "f32", F64: "f64", C128: "c128"}
	opName   = map[Op]string{OpSum: "sum", OpProd: "prod", OpMax: "max", OpMin: "min"}
)

// aligned returns an n-byte window of a fresh buffer starting at an
// element-aligned address plus shift bytes; shift 1 defeats the typed views
// and forces the portable per-element path.
func aligned(n, shift int) []byte {
	raw := make([]byte, n+16)
	off := int(-uintptr(unsafe.Pointer(&raw[0])) & 7)
	return raw[off+shift : off+shift+n]
}

// sumPaths runs f once per sum path this host can take: the scalar kernels
// (vectorSum forced off) and, on AVX2 hosts, the vector bodies.
func sumPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	defer func(v bool) { vectorSum = v }(vectorSum)
	for _, vec := range []bool{false, true} {
		if vec && !haveAVX2() {
			t.Log("no AVX2 vector sum path on this CPU or architecture: scalar path only")
			continue
		}
		vectorSum = vec
		name := "scalar"
		if vec {
			name = "vector"
		}
		t.Run(name, f)
	}
}

// kernelCounts cover the unrolled scalar loop's tails and, for the vector
// bodies, one short of, exactly at and one past each 16- and 32-element
// block boundary, plus long runs with ragged tails.
var kernelCounts = []int{1, 2, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 1000, 4099}

// rawSpecials are the float values where IEEE semantics are delicate, as
// bit patterns: signed zeros, quiet NaNs with distinct payloads and signs,
// infinities, subnormals and the largest finite values. Signaling NaNs are
// left out: the portable float32 path widens to float64, which quiets one
// even where the typed max and min only copy it.
var rawSpecials = map[Kind][]uint64{
	F32: {0, 0x80000000, 0x3f800000, 0xbfc00000, 0x7fc00000, 0x7fc12345, 0xffc00001,
		0x7f800000, 0xff800000, 0x000116c2, 0x7f7fffff, 0xff7fffff, 0x40e00000},
	F64: {0, 0x8000000000000000, 0x3ff0000000000000, 0xbff8000000000000, 0x7ff8000000000000,
		0x7ff80000000abcde, 0xfff8000000000001, 0x7ff0000000000000, 0xfff0000000000000,
		1, 0x7fefffffffffffff, 0xffefffffffffffff, 0x401c000000000000},
}

// pair returns element i's operands: every (d, s) pair of vals once count
// reaches len(vals)², NaN against NaN of another payload included.
func pair(vals []uint64, i int) (d, s uint64) {
	return vals[i%len(vals)], vals[(i/len(vals))%len(vals)]
}

func putBits(k Kind, b []byte, i int, v uint64) {
	if k == F32 {
		binary.LittleEndian.PutUint32(b[i*4:], uint32(v))
		return
	}
	binary.LittleEndian.PutUint64(b[i*8:], v)
}

func bitsAt(k Kind, b []byte, i int) uint64 {
	if k == F32 {
		return uint64(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return binary.LittleEndian.Uint64(b[i*8:])
}

func isNaNBits(k Kind, v uint64) bool {
	if k == F32 {
		return v&0x7fffffff > 0x7f800000
	}
	return v&(1<<63-1) > 0x7ff0000000000000
}

// eitherNaN reports whether d and s are both NaN and r carries the payload
// of one of them, quieted. IEEE 754 leaves open which one an operation on
// two NaNs returns, and the compiler may commute a Go float add or
// multiply (it does in the scalar kernels under -race), so the scalar and
// portable paths are held only to this; TestVectorSumOperandOrder pins the
// vector bodies exactly.
func eitherNaN(k Kind, r, d, s uint64) bool {
	quiet := uint64(1) << 51
	if k == F32 {
		quiet = 1 << 22
	}
	return isNaNBits(k, d) && isNaNBits(k, s) && (r == d|quiet || r == s|quiet)
}

// The typed kernels, the sums on both the scalar and the vector path, must
// agree bit for bit with the portable path on every tail length and on the
// delicate float values: NaN payloads and signs, infinities, signed zeros
// and subnormals.
func TestReduceKernelsMatchPortable(t *testing.T) {
	sumPaths(t, func(t *testing.T) {
		for k, vals := range rawSpecials {
			for _, op := range []Op{OpSum, OpProd, OpMax, OpMin} {
				for _, count := range kernelCounts {
					sz := count * k.Size()
					fast, slow := aligned(sz, 0), aligned(sz, 1)
					sf, ss := aligned(sz, 0), aligned(sz, 1)
					for i := 0; i < count; i++ {
						d, s := pair(vals, i)
						putBits(k, fast, i, d)
						putBits(k, slow, i, d)
						putBits(k, sf, i, s)
						putBits(k, ss, i, s)
					}
					Reduce(op, k, fast, sf, count)
					Reduce(op, k, slow, ss, count)
					for i := 0; i < count; i++ {
						got, want := bitsAt(k, fast, i), bitsAt(k, slow, i)
						d, s := pair(vals, i)
						if got != want && !(eitherNaN(k, got, d, s) && eitherNaN(k, want, d, s)) {
							t.Fatalf("%s %s count %d elem %d: typed %#x, portable %#x",
								kindName[k], opName[op], count, i, got, want)
						}
					}
				}
			}
		}
	})
}

// The vector bodies take the left operand as the first source of
// VADDPS/VADDPD, so NaN + NaN keeps the left operand's payload, as the
// ADDSS/ADDSD of the scalar kernels in a normal build do. The chain bodies
// must keep it at every step: for each step s of the chain (ins[2] …
// ins[m−1], then ins[0]), the inputs up to and including step s's are NaNs
// with distinct payloads and the rest are 1, so the result carries step
// s's payload only if every add from step s on kept its left operand.
func TestVectorSumOperandOrder(t *testing.T) {
	if !haveAVX2() {
		t.Skip("no AVX2 vector sum path on this CPU or architecture")
	}
	const n = 32 // one full block of either width
	l32, r32 := math.Float32frombits(0x7fc12345), math.Float32frombits(0xffc00001)
	d32, s32, o32 := make([]float32, n), make([]float32, n), make([]float32, n)
	l64, r64 := math.Float64frombits(0x7ff80000000abcde), math.Float64frombits(0xfff8000000000001)
	d64, s64, o64 := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range d32 {
		d32[i], s32[i], d64[i], s64[i] = l32, r32, l64, r64
	}
	if sumOfF32(o32, d32, s32) != n || sumToF32(d32, s32) != n ||
		sumOfF64(o64, d64, s64) != n || sumToF64(d64, s64) != n {
		t.Fatal("a vector body did not cover a whole block")
	}
	for i := 0; i < n; i++ {
		for _, got := range []uint32{math.Float32bits(d32[i]), math.Float32bits(o32[i])} {
			if got != 0x7fc12345 {
				t.Fatalf("f32 elem %d: NaN + NaN = %#x, want the left payload 0x7fc12345", i, got)
			}
		}
		for _, got := range []uint64{math.Float64bits(d64[i]), math.Float64bits(o64[i])} {
			if got != 0x7ff80000000abcde {
				t.Fatalf("f64 elem %d: NaN + NaN = %#x, want the left payload 0x7ff80000000abcde", i, got)
			}
		}
	}
	const m = 5
	order := []int{1, 2, 3, 4, 0}
	for _, k := range []Kind{F32, F64} {
		for s := 1; s < m; s++ {
			ins := make([][]byte, m)
			var want uint64
			for p, i := range order {
				ins[i] = aligned(n*k.Size(), 0)
				v := uint64(0x3ff0000000000000) // 1
				if k == F32 {
					v = 0x3f800000
				}
				if p <= s {
					v = 0x7ff8000000000000 | uint64(p+1)<<8 | uint64(p&1)<<63
					if k == F32 {
						v = 0x7fc00000 | uint64(p+1)<<8 | uint64(p&1)<<31
					}
				}
				if p == s {
					want = v
				}
				for e := 0; e < n; e++ {
					putBits(k, ins[i], e, v)
				}
			}
			outs := [][]byte{aligned(n*k.Size(), 0), ins[0]}
			body := sumChainF32
			if k == F64 {
				body = sumChainF64
			}
			if body(outs, ins, n) != n {
				t.Fatalf("%s chain body did not cover a whole block", kindName[k])
			}
			for j, o := range outs {
				for e := 0; e < n; e++ {
					if got := bitsAt(k, o, e); got != want {
						t.Fatalf("%s step %d out %d elem %d: %#x, want the left payload %#x",
							kindName[k], s, j, e, got, want)
					}
				}
			}
		}
	}
	// ReduceTree must keep the member's own side on the left at every step
	// of the tree: for the step where member j takes child c's partial,
	// ins[j] and ins[c] are NaNs with distinct payloads and every other
	// input is 1, so the root's result carries ins[j]'s payload only if
	// that step kept its left operand (the NaN then travels up as a right
	// operand against finite partials, which keep it).
	for _, k := range []Kind{F32, F64} {
		for _, m := range []int{5, 12} {
			for j := 0; j < m; j++ {
				for mask := 1; j&mask == 0 && j+mask < m; mask <<= 1 {
					nan := func(p int) uint64 {
						if k == F32 {
							return 0x7fc00000 | uint64(p+1)<<8 | uint64(p&1)<<31
						}
						return 0x7ff8000000000000 | uint64(p+1)<<8 | uint64(p&1)<<63
					}
					ins := make([][]byte, m)
					for i := range ins {
						v := uint64(0x3ff0000000000000) // 1
						if k == F32 {
							v = 0x3f800000
						}
						switch i {
						case j:
							v = nan(0)
						case j + mask:
							v = nan(1)
						}
						ins[i] = aligned(n*k.Size(), 0)
						for e := 0; e < n; e++ {
							putBits(k, ins[i], e, v)
						}
					}
					out := aligned(n*k.Size(), 0)
					var scratch [][]byte
					ReduceTree(OpSum, k, out, ins, n, &scratch)
					for e := 0; e < n; e++ {
						if got := bitsAt(k, out, e); got != nan(0) {
							t.Fatalf("%s m %d step %d←%d elem %d: %#x, want the left payload %#x",
								kindName[k], m, j, j+mask, e, got, nan(0))
						}
					}
				}
			}
		}
	}
}

// reduceVals are the values the out-of-place and chained reduces are held
// to on every kind: signed zeros, NaNs with three distinct payloads,
// infinities, subnormals of both widths, the edges of float32 and float16,
// and small integers.
var reduceVals = []float64{0, math.Copysign(0, -1), 1, -1.5, math.NaN(), math.Inf(1), math.Inf(-1),
	1e-40, 5e-324, 6e-8, 3.4e38, -7, 250, 65504,
	math.Float64frombits(0x7ffa000000000000), math.Float64frombits(0xfffc000000000000)}

// reduceCounts are every length up to 17 (the scalar kernels' unroll
// tails), one short of, at and one past the 32- and 64-element vector
// block edges, and a long ragged run.
var reduceCounts = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 32, 33, 63, 64, 65, 4099}

// ReduceTo must equal copy-then-Reduce byte for byte: on every kind and
// operator, every tail length of the scalar and vector sum kernels, the
// delicate float values, unaligned operands, which take the portable path,
// and dst == a, which the fused kernels allow.
func TestReduceToMatchesCopyThenReduce(t *testing.T) {
	counts := append(append([]int(nil), reduceCounts...), 1000)
	sumPaths(t, func(t *testing.T) {
		for _, k := range []Kind{U8, I32, I64, F16, F32, F64, C128} {
			for _, op := range []Op{OpSum, OpProd, OpMax, OpMin} {
				if k == C128 && (op == OpMax || op == OpMin) {
					continue // undefined; Reduce panics
				}
				for _, count := range counts {
					sz := count * k.Size()
					// shift bit 0/1/2 misaligns dst/a/b by one byte.
					for shift := 0; shift < 8; shift++ {
						dst, a, b := aligned(sz, shift&1), aligned(sz, shift>>1&1), aligned(sz, shift>>2&1)
						for i := 0; i < count; i++ {
							Set(k, a, i, reduceVals[(i*5)%len(reduceVals)], reduceVals[(i+2)%len(reduceVals)])
							Set(k, b, i, reduceVals[(i*3+1)%len(reduceVals)], reduceVals[(i+7)%len(reduceVals)])
							Set(k, dst, i, 99, 99) // stale contents must not leak through
						}
						want := append([]byte(nil), a...)
						Reduce(op, k, want, b, count)
						ReduceTo(op, k, dst, a, b, count)
						if string(dst) != string(want) {
							t.Fatalf("%s %s count %d shift %d: ReduceTo % x, copy-then-Reduce % x",
								kindName[k], opName[op], count, shift, dst, want)
						}
						if shift&1 == shift>>1&1 {
							ReduceTo(op, k, a, a, b, count) // dst == a
							if string(a) != string(want) {
								t.Fatalf("%s %s count %d shift %d: ReduceTo into a % x, copy-then-Reduce % x",
									kindName[k], opName[op], count, shift, a, want)
							}
						}
					}
				}
			}
		}
	})
}

// BenchmarkReduce measures the typed kernels on one ring step's segment
// (256 KiB, cache resident) and on a 4 MiB payload (memory bound): Reduce
// in place, and the fused out-of-place ReduceTo sum a hierarchical rank's
// first reduce of a chunk runs.
func BenchmarkReduce(b *testing.B) {
	for _, k := range []Kind{F32, F64} {
		for _, op := range []Op{OpSum, OpMax} {
			for _, bytes := range []int{256 << 10, 4 << 20} {
				name := fmt.Sprintf("%s/%s/%dKiB", kindName[k], opName[op], bytes>>10)
				b.Run(name, func(b *testing.B) {
					count := bytes / k.Size()
					dst, src := make([]byte, bytes), make([]byte, bytes)
					for i := 0; i < count; i++ {
						Set(k, src, i, float64(i%1000), 0)
					}
					b.SetBytes(int64(bytes))
					for i := 0; i < b.N; i++ {
						Reduce(op, k, dst, src, count)
					}
				})
			}
		}
		for _, bytes := range []int{256 << 10, 4 << 20} {
			b.Run(fmt.Sprintf("reduceto/%s/sum/%dKiB", kindName[k], bytes>>10), func(b *testing.B) {
				count := bytes / k.Size()
				dst, x, y := make([]byte, bytes), make([]byte, bytes), make([]byte, bytes)
				for i := 0; i < count; i++ {
					Set(k, x, i, float64(i%1000), 0)
					Set(k, y, i, float64(i%777), 0)
				}
				b.SetBytes(int64(bytes))
				for i := 0; i < b.N; i++ {
					ReduceTo(OpSum, k, dst, x, y, count)
				}
			})
		}
	}
}
