// Package elem implements elementwise typed operations on raw byte buffers:
// the compute kernels shared by the MPI runtime and the CCL backends for
// reductions over device memory. Values are little-endian, matching what a
// real device buffer of scalars would hold.
package elem

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"
)

// hostLittleEndian reports whether the host lays out multi-byte scalars in
// little-endian order, in which case a []byte buffer can be reinterpreted
// as a typed slice directly. On big-endian hosts the portable per-element
// decode path runs instead.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// view reinterprets b as count Ts when the host is little-endian and the
// buffer is element-aligned; it returns nil when the portable path must be
// used. The view produces bit-identical results to the decode path — it
// only removes the per-element byte shuffling.
func view[T float](b []byte, count int) []T {
	var zero T
	sz := int(unsafe.Sizeof(zero))
	if !hostLittleEndian || count == 0 || uintptr(unsafe.Pointer(&b[0]))%uintptr(sz) != 0 {
		return nil
	}
	_ = b[count*sz-1] // bounds check the full range up front
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), count)
}

// Kind is a scalar element type.
type Kind int

const (
	// U8 is an unsigned byte.
	U8 Kind = iota
	// I32 is a little-endian int32.
	I32
	// I64 is a little-endian int64.
	I64
	// F16 is IEEE 754 binary16.
	F16
	// F32 is IEEE 754 binary32.
	F32
	// F64 is IEEE 754 binary64.
	F64
	// C128 is a pair of float64 (re, im).
	C128
)

// Size returns the element width in bytes.
func (k Kind) Size() int {
	switch k {
	case U8:
		return 1
	case F16:
		return 2
	case I32, F32:
		return 4
	case I64, F64:
		return 8
	case C128:
		return 16
	}
	panic(fmt.Sprintf("elem: unknown kind %d", int(k)))
}

// Op is a reduction operator.
type Op int

const (
	// OpSum adds.
	OpSum Op = iota
	// OpProd multiplies (complex-aware for C128).
	OpProd
	// OpMax keeps the maximum (undefined for C128).
	OpMax
	// OpMin keeps the minimum (undefined for C128).
	OpMin
)

// Get reads element i as (re, im); im is zero for real kinds.
func Get(k Kind, b []byte, i int) (re, im float64) {
	switch k {
	case U8:
		return float64(b[i]), 0
	case I32:
		return float64(int32(binary.LittleEndian.Uint32(b[i*4:]))), 0
	case I64:
		return float64(int64(binary.LittleEndian.Uint64(b[i*8:]))), 0
	case F16:
		return Float16ToFloat(binary.LittleEndian.Uint16(b[i*2:])), 0
	case F32:
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))), 0
	case F64:
		return math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:])), 0
	case C128:
		return math.Float64frombits(binary.LittleEndian.Uint64(b[i*16:])),
			math.Float64frombits(binary.LittleEndian.Uint64(b[i*16+8:]))
	}
	panic(fmt.Sprintf("elem: get for kind %d", int(k)))
}

// Set stores (re, im) into element i; im is ignored for real kinds.
func Set(k Kind, b []byte, i int, re, im float64) {
	switch k {
	case U8:
		b[i] = byte(clamp(re, 0, 255))
	case I32:
		binary.LittleEndian.PutUint32(b[i*4:], uint32(int32(clamp(re, math.MinInt32, math.MaxInt32))))
	case I64:
		binary.LittleEndian.PutUint64(b[i*8:], uint64(int64(re)))
	case F16:
		binary.LittleEndian.PutUint16(b[i*2:], FloatToFloat16(re))
	case F32:
		binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(float32(re)))
	case F64:
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(re))
	case C128:
		binary.LittleEndian.PutUint64(b[i*16:], math.Float64bits(re))
		binary.LittleEndian.PutUint64(b[i*16+8:], math.Float64bits(im))
	default:
		panic(fmt.Sprintf("elem: set for kind %d", int(k)))
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Reduce applies dst[i] = op(dst[i], src[i]) elementwise over count
// elements. OpMax/OpMin on C128 panic (undefined by both the MPI standard
// and every CCL). F32 and F64 — the payloads of every gradient allreduce —
// run typed kernels over aligned little-endian buffers, their sums in
// 256-bit AVX2 vectors where the CPU has them (see vectorSum); every other
// case takes the portable per-element path below, which gives bit-identical
// results (a float32 sum or product rounded once from float64 equals the
// float32 operation).
func Reduce(op Op, k Kind, dst, src []byte, count int) {
	if k == C128 && (op == OpMax || op == OpMin) {
		panic("elem: max/min undefined for complex")
	}
	switch k {
	case F32:
		if d, s := view[float32](dst, count), view[float32](src, count); d != nil && s != nil {
			if op == OpSum && vectorSum {
				n := sumToF32(d, s)
				d, s = d[n:], s[n:]
			}
			reduceFloat(op, d, s)
			return
		}
	case F64:
		if d, s := view[float64](dst, count), view[float64](src, count); d != nil && s != nil {
			if op == OpSum && vectorSum {
				n := sumToF64(d, s)
				d, s = d[n:], s[n:]
			}
			reduceFloat(op, d, s)
			return
		}
	}
	for i := 0; i < count; i++ {
		dre, dim := Get(k, dst, i)
		sre, sim := Get(k, src, i)
		var re, im float64
		switch op {
		case OpSum:
			re, im = dre+sre, dim+sim
		case OpProd:
			if k == C128 {
				re = dre*sre - dim*sim
				im = dre*sim + dim*sre
			} else {
				re = dre * sre
			}
		case OpMax:
			re = dre
			if sre > dre {
				re = sre
			}
		case OpMin:
			re = dre
			if sre < dre {
				re = sre
			}
		}
		Set(k, dst, i, re, im)
	}
}

// ReduceTo writes dst[i] = op(a[i], b[i]) over count elements: Reduce out
// of place, bit-identical to copying a into dst and then calling
// Reduce(op, k, dst, b, count), with one memory pass fewer. dst may be a
// itself but must not otherwise overlap a or b. F32 and F64 sums run a fused
// typed kernel over aligned little-endian buffers, vectorized like Reduce's;
// every other case copies and then reduces.
func ReduceTo(op Op, k Kind, dst, a, b []byte, count int) {
	if op == OpSum {
		switch k {
		case F32:
			if d, x, y := view[float32](dst, count), view[float32](a, count), view[float32](b, count); d != nil && x != nil && y != nil {
				if vectorSum {
					n := sumOfF32(d, x, y)
					d, x, y = d[n:], x[n:], y[n:]
				}
				sumOf(d, x, y)
				return
			}
		case F64:
			if d, x, y := view[float64](dst, count), view[float64](a, count), view[float64](b, count); d != nil && x != nil && y != nil {
				if vectorSum {
					n := sumOfF64(d, x, y)
					d, x, y = d[n:], x[n:], y[n:]
				}
				sumOf(d, x, y)
				return
			}
		}
	}
	n := count * k.Size()
	copy(dst[:n], a[:n])
	Reduce(op, k, dst, b, count)
}

// Float16ToFloat converts an IEEE 754 binary16 value to float64.
func Float16ToFloat(h uint16) float64 {
	sign := uint64(h>>15) & 1
	exp := uint64(h>>10) & 0x1f
	frac := uint64(h) & 0x3ff
	var bits uint64
	switch {
	case exp == 0 && frac == 0:
		bits = sign << 63
	case exp == 0: // subnormal
		e := uint64(0)
		for frac&0x400 == 0 {
			frac <<= 1
			e++
		}
		frac &= 0x3ff
		bits = sign<<63 | (1023-15+1-e)<<52 | frac<<42
	case exp == 0x1f && frac == 0:
		bits = sign<<63 | 0x7ff<<52 // inf
	case exp == 0x1f:
		bits = sign<<63 | 0x7ff<<52 | frac<<42 // nan
	default:
		bits = sign<<63 | (exp-15+1023)<<52 | frac<<42
	}
	return math.Float64frombits(bits)
}

// FloatToFloat16 converts a float64 to IEEE 754 binary16 (truncating
// rounding, overflow to inf, deep underflow flushed to zero).
func FloatToFloat16(f float64) uint16 {
	bits := math.Float64bits(f)
	sign := uint16(bits>>48) & 0x8000
	exp := int((bits>>52)&0x7ff) - 1023
	frac := bits & 0xfffffffffffff
	switch {
	case math.IsNaN(f):
		return sign | 0x7e00
	case math.IsInf(f, 0) || exp > 15:
		return sign | 0x7c00
	case exp < -24:
		return sign
	case exp < -14: // subnormal
		shift := uint(-exp - 14)
		m := uint16((frac|1<<52)>>42) >> shift
		return sign | m
	default:
		return sign | uint16(exp+15)<<10 | uint16(frac>>42)
	}
}
