// Package mpi implements a simulated GPU-aware MPI runtime: communicators,
// point-to-point messaging with eager/rendezvous protocols and tag matching,
// and the classic collective algorithms (binomial trees, recursive doubling,
// Rabenseifner, ring, Bruck, pairwise exchange). Each rank runs as a sim
// process on an accelerator; payload bytes genuinely move between rank
// buffers over the fabric, so collectives are testable for correctness as
// well as timing.
//
// This is the "traditional MPI library" of the paper: the runtime whose
// small-message latency beats vendor CCLs and whose large-message bandwidth
// loses to them, motivating the hybrid xCCL design layered on top by
// package core.
package mpi

import (
	"fmt"

	"mpixccl/internal/elem"
)

// Datatype identifies an MPI basic datatype. Only contiguous basic types
// are modeled; derived datatypes are out of the paper's scope.
type Datatype int

const (
	// Byte is MPI_BYTE.
	Byte Datatype = iota
	// Int32 is MPI_INT.
	Int32
	// Int64 is MPI_LONG_LONG.
	Int64
	// Float16 is the half-precision type used by DL gradients (maps to
	// ncclFloat16's role in DL workloads).
	Float16
	// Float32 is MPI_FLOAT.
	Float32
	// Float64 is MPI_DOUBLE.
	Float64
	// DoubleComplex is MPI_DOUBLE_COMPLEX: a standard MPI type used by FFT
	// applications (e.g. heFFTe) that no vendor CCL implements — the
	// canonical trigger for the abstraction layer's MPI fallback.
	DoubleComplex
)

// datatypeInfo is indexed by Datatype: an array, since Size runs on every
// message and collective step.
var datatypeInfo = [...]struct {
	name string
	kind elem.Kind
}{
	Byte:          {"MPI_BYTE", elem.U8},
	Int32:         {"MPI_INT", elem.I32},
	Int64:         {"MPI_LONG_LONG", elem.I64},
	Float16:       {"MPI_FLOAT16", elem.F16},
	Float32:       {"MPI_FLOAT", elem.F32},
	Float64:       {"MPI_DOUBLE", elem.F64},
	DoubleComplex: {"MPI_DOUBLE_COMPLEX", elem.C128},
}

// Kind returns the underlying element kind.
func (d Datatype) Kind() elem.Kind {
	if !d.known() {
		panic(fmt.Sprintf("mpi: unknown datatype %d", int(d)))
	}
	return datatypeInfo[d].kind
}

func (d Datatype) known() bool { return d >= 0 && int(d) < len(datatypeInfo) }

// Size returns the datatype's extent in bytes.
func (d Datatype) Size() int { return d.Kind().Size() }

// String returns the MPI constant name.
func (d Datatype) String() string {
	if d.known() {
		return datatypeInfo[d].name
	}
	return fmt.Sprintf("Datatype(%d)", int(d))
}

// Datatypes lists every supported type, for capability-matrix iteration.
func Datatypes() []Datatype {
	return []Datatype{Byte, Int32, Int64, Float16, Float32, Float64, DoubleComplex}
}
