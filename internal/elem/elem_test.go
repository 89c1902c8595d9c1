package elem

import (
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

// The typed kernels must agree bit for bit with the portable path on every
// tail length and on the values where float semantics are delicate: NaN,
// infinities, signed zeros and subnormals.
func TestReduceKernelsMatchPortable(t *testing.T) {
	specials := map[Kind][]float64{
		F32: {0, math.Copysign(0, -1), 1, -1.5, math.NaN(), math.Inf(1), math.Inf(-1), 1e-40, 3.4e38, -3.4e38, 7},
		F64: {0, math.Copysign(0, -1), 1, -1.5, math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 1.7e308, -1.7e308, 7},
	}
	for k, vals := range specials {
		for _, op := range []Op{OpSum, OpProd, OpMax, OpMin} {
			for _, count := range []int{1, 2, 7, 8, 9, 15, 16, 17, 31, 33, 1000} {
				sz := count * k.Size()
				fast, slow := aligned(sz, 0), aligned(sz, 1)
				sf, ss := aligned(sz, 0), aligned(sz, 1)
				for i := 0; i < count; i++ {
					d, s := vals[(i*7)%len(vals)], vals[(i*3+1)%len(vals)]
					Set(k, fast, i, d, 0)
					Set(k, slow, i, d, 0)
					Set(k, sf, i, s, 0)
					Set(k, ss, i, s, 0)
				}
				Reduce(op, k, fast, sf, count)
				Reduce(op, k, slow, ss, count)
				for i := 0; i < count; i++ {
					got, _ := Get(k, fast, i)
					want, _ := Get(k, slow, i)
					same := got == want && math.Signbit(got) == math.Signbit(want)
					if !same && !(math.IsNaN(got) && math.IsNaN(want)) {
						t.Fatalf("%s %s count %d elem %d: typed %v, portable %v",
							kindName[k], opName[op], count, i, got, want)
					}
				}
			}
		}
	}
}

// ReduceTo must equal copy-then-Reduce byte for byte: on every kind and
// operator, every tail length of the unrolled kernel, the delicate float
// values, and unaligned operands, which take the portable path.
func TestReduceToMatchesCopyThenReduce(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1.5, math.NaN(), math.Inf(1), math.Inf(-1),
		1e-40, 5e-324, 6e-8, 3.4e38, -7, 250, 65504}
	for _, k := range []Kind{U8, I32, I64, F16, F32, F64, C128} {
		for _, op := range []Op{OpSum, OpProd, OpMax, OpMin} {
			if k == C128 && (op == OpMax || op == OpMin) {
				continue // undefined; Reduce panics
			}
			for count := 0; count <= 17; count++ {
				sz := count * k.Size()
				// shift bit 0/1/2 misaligns dst/a/b by one byte.
				for shift := 0; shift < 8; shift++ {
					dst, a, b := aligned(sz, shift&1), aligned(sz, shift>>1&1), aligned(sz, shift>>2&1)
					for i := 0; i < count; i++ {
						Set(k, a, i, vals[(i*5)%len(vals)], vals[(i+2)%len(vals)])
						Set(k, b, i, vals[(i*3+1)%len(vals)], vals[(i+7)%len(vals)])
						Set(k, dst, i, 99, 99) // stale contents must not leak through
					}
					want := append([]byte(nil), a...)
					Reduce(op, k, want, b, count)
					ReduceTo(op, k, dst, a, b, count)
					if string(dst) != string(want) {
						t.Fatalf("%s %s count %d shift %d: ReduceTo % x, copy-then-Reduce % x",
							kindName[k], opName[op], count, shift, dst, want)
					}
				}
			}
		}
	}
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
