package mpi

import (
	"math"
	"testing"
	"testing/quick"

	"mpixccl/internal/elem"
)

func TestDatatypeSizes(t *testing.T) {
	want := map[Datatype]int{
		Byte: 1, Int32: 4, Int64: 8, Float16: 2, Float32: 4, Float64: 8, DoubleComplex: 16,
	}
	for dt, sz := range want {
		if dt.Size() != sz {
			t.Errorf("%v.Size() = %d, want %d", dt, dt.Size(), sz)
		}
	}
}

func TestDatatypeStrings(t *testing.T) {
	if Float64.String() != "MPI_DOUBLE" {
		t.Errorf("Float64 = %q", Float64.String())
	}
	if DoubleComplex.String() != "MPI_DOUBLE_COMPLEX" {
		t.Errorf("DoubleComplex = %q", DoubleComplex.String())
	}
	if Datatype(99).String() != "Datatype(99)" {
		t.Errorf("unknown = %q", Datatype(99).String())
	}
}

func TestUnknownDatatypeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Datatype(99).Size()
}

func TestDatatypesListsAll(t *testing.T) {
	if len(Datatypes()) != 7 {
		t.Fatalf("Datatypes() has %d entries", len(Datatypes()))
	}
}

func TestElementRoundTripAllTypes(t *testing.T) {
	for _, dt := range Datatypes() {
		b := make([]byte, 16*dt.Size())
		vals := []float64{0, 1, -1, 3.5, 100}
		switch dt {
		case Byte:
			vals = []float64{0, 1, 100, 255}
		case Int32, Int64:
			vals = []float64{0, 1, -1, 3, 100}
		}
		for i, v := range vals {
			elem.Set(dt.Kind(), b, i, v, -v)
			re, im := elem.Get(dt.Kind(), b, i)
			if re != v {
				t.Errorf("%v element %d: re = %v, want %v", dt, i, re, v)
			}
			if dt == DoubleComplex && im != -v {
				t.Errorf("%v element %d: im = %v, want %v", dt, i, im, -v)
			}
		}
	}
}

func TestOpStringsAndList(t *testing.T) {
	if OpSum.String() != "MPI_SUM" || OpMax.String() != "MPI_MAX" {
		t.Error("op names wrong")
	}
	if Op(9).String() != "Op(9)" {
		t.Error("unknown op name wrong")
	}
	if len(Ops()) != 4 {
		t.Error("Ops() incomplete")
	}
}

func TestOpValidFor(t *testing.T) {
	if !OpSum.ValidFor(DoubleComplex) || !OpProd.ValidFor(DoubleComplex) {
		t.Error("sum/prod must be valid for complex")
	}
	if OpMax.ValidFor(DoubleComplex) || OpMin.ValidFor(DoubleComplex) {
		t.Error("max/min must be invalid for complex")
	}
	if !OpMax.ValidFor(Float32) {
		t.Error("max must be valid for float")
	}
}

func TestReduceSumFloat64(t *testing.T) {
	n := 8
	dst := make([]byte, n*8)
	src := make([]byte, n*8)
	for i := 0; i < n; i++ {
		elem.Set(Float64.Kind(), dst, i, float64(i), 0)
		elem.Set(Float64.Kind(), src, i, 10*float64(i), 0)
	}
	Reduce(OpSum, Float64, dst, src, n)
	for i := 0; i < n; i++ {
		re, _ := elem.Get(Float64.Kind(), dst, i)
		if re != 11*float64(i) {
			t.Fatalf("element %d = %v, want %v", i, re, 11*float64(i))
		}
	}
}

func TestReduceMaxMinInt32(t *testing.T) {
	dst := make([]byte, 8)
	src := make([]byte, 8)
	elem.Set(Int32.Kind(), dst, 0, 5, 0)
	elem.Set(Int32.Kind(), src, 0, -3, 0)
	elem.Set(Int32.Kind(), dst, 1, -7, 0)
	elem.Set(Int32.Kind(), src, 1, 2, 0)
	maxDst := append([]byte(nil), dst...)
	Reduce(OpMax, Int32, maxDst, src, 2)
	if re, _ := elem.Get(Int32.Kind(), maxDst, 0); re != 5 {
		t.Errorf("max[0] = %v", re)
	}
	if re, _ := elem.Get(Int32.Kind(), maxDst, 1); re != 2 {
		t.Errorf("max[1] = %v", re)
	}
	Reduce(OpMin, Int32, dst, src, 2)
	if re, _ := elem.Get(Int32.Kind(), dst, 0); re != -3 {
		t.Errorf("min[0] = %v", re)
	}
	if re, _ := elem.Get(Int32.Kind(), dst, 1); re != -7 {
		t.Errorf("min[1] = %v", re)
	}
}

func TestReduceComplexProd(t *testing.T) {
	dst := make([]byte, 16)
	src := make([]byte, 16)
	elem.Set(DoubleComplex.Kind(), dst, 0, 1, 2)  // 1+2i
	elem.Set(DoubleComplex.Kind(), src, 0, 3, -1) // 3-1i
	Reduce(OpProd, DoubleComplex, dst, src, 1)
	re, im := elem.Get(DoubleComplex.Kind(), dst, 0)
	// (1+2i)(3-i) = 3 - i + 6i - 2i² = 5 + 5i
	if re != 5 || im != 5 {
		t.Fatalf("complex prod = %v+%vi, want 5+5i", re, im)
	}
}

func TestReduceComplexMaxPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for MAX on complex")
		}
	}()
	Reduce(OpMax, DoubleComplex, make([]byte, 16), make([]byte, 16), 1)
}

// Property: sum-reduce is commutative over operand order for float64.
func TestReduceSumCommutativeProperty(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		x := make([]byte, n*8)
		y := make([]byte, n*8)
		x2 := make([]byte, n*8)
		y2 := make([]byte, n*8)
		for i := 0; i < n; i++ {
			elem.Set(Float64.Kind(), x, i, a[i], 0)
			elem.Set(Float64.Kind(), y, i, b[i], 0)
			elem.Set(Float64.Kind(), x2, i, a[i], 0)
			elem.Set(Float64.Kind(), y2, i, b[i], 0)
		}
		Reduce(OpSum, Float64, x, y, n) // x = a+b
		Reduce(OpSum, Float64, y2, x2, n)
		for i := 0; i < n; i++ {
			r1, _ := elem.Get(Float64.Kind(), x, i)
			r2, _ := elem.Get(Float64.Kind(), y2, i)
			if r1 != r2 && !(math.IsNaN(r1) && math.IsNaN(r2)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
