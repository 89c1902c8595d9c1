// Package ccl implements the common machinery of vendor collective
// communication libraries ("xCCLs"): NCCL-style communicators, the five
// built-in collectives (AllReduce, Broadcast, Reduce, AllGather,
// ReduceScatter), point-to-point Send/Recv with Group semantics, and the
// stream-ordered execution model. Vendor packages (ccl/nccl, ccl/rccl,
// ccl/hccl, ccl/msccl) instantiate this machinery with their own
// capability matrices, launch overheads, and channel budgets.
//
// Collectives execute on device streams: a call enqueues the rank's part
// of the algorithm and returns; peers' stream tasks rendezvous inside the
// simulation, move real bytes over the fabric, and complete in virtual
// time. This mirrors how the paper's abstraction layer has to manage CCL
// asynchrony (stream handling, §1.2 advantage 2).
package ccl

import (
	"errors"
	"fmt"
	"time"

	"mpixccl/internal/device"
)

// Datatype is the CCL element type (ncclDataType_t analogue).
type Datatype int

const (
	// Int8 is ncclInt8.
	Int8 Datatype = iota
	// Int32 is ncclInt32.
	Int32
	// Int64 is ncclInt64.
	Int64
	// Float16 is ncclFloat16.
	Float16
	// Float32 is ncclFloat32.
	Float32
	// Float64 is ncclFloat64.
	Float64
)

var cclTypeInfo = map[Datatype]struct {
	name string
	size int
}{
	Int8:    {"xcclInt8", 1},
	Int32:   {"xcclInt32", 4},
	Int64:   {"xcclInt64", 8},
	Float16: {"xcclFloat16", 2},
	Float32: {"xcclFloat32", 4},
	Float64: {"xcclFloat64", 8},
}

// Size returns the element size in bytes. It is consulted on every
// collective validation and algorithm step, so it avoids the map lookup.
func (d Datatype) Size() int {
	switch d {
	case Int8:
		return 1
	case Float16:
		return 2
	case Int32, Float32:
		return 4
	case Int64, Float64:
		return 8
	}
	panic(fmt.Sprintf("ccl: unknown datatype %d", int(d)))
}

// String returns the xccl constant name.
func (d Datatype) String() string {
	if info, ok := cclTypeInfo[d]; ok {
		return info.name
	}
	return fmt.Sprintf("Datatype(%d)", int(d))
}

// Datatypes lists all CCL datatypes.
func Datatypes() []Datatype {
	return []Datatype{Int8, Int32, Int64, Float16, Float32, Float64}
}

// RedOp is the CCL reduction operator (ncclRedOp_t analogue).
type RedOp int

const (
	// Sum is ncclSum.
	Sum RedOp = iota
	// Prod is ncclProd.
	Prod
	// Max is ncclMax.
	Max
	// Min is ncclMin.
	Min
)

// String returns the xccl constant name.
func (o RedOp) String() string {
	switch o {
	case Sum:
		return "xcclSum"
	case Prod:
		return "xcclProd"
	case Max:
		return "xcclMax"
	case Min:
		return "xcclMin"
	}
	return fmt.Sprintf("RedOp(%d)", int(o))
}

// Result is the CCL status code (ncclResult_t analogue).
type Result int

const (
	// Success is ncclSuccess.
	Success Result = iota
	// ErrUnsupportedDatatype reports a datatype outside the backend's matrix.
	ErrUnsupportedDatatype
	// ErrUnsupportedOp reports a reduction the backend cannot perform.
	ErrUnsupportedOp
	// ErrUnsupportedDevice reports an accelerator the backend cannot drive.
	ErrUnsupportedDevice
	// ErrInvalidArgument reports a malformed call.
	ErrInvalidArgument
	// ErrInternal reports a library-internal failure (the class of error
	// the paper hit with NCCL 2.18.3 on ThetaGPU, §4.4).
	ErrInternal
	// ErrRemote reports a transient peer/network failure (the
	// ncclRemoteError class): the call may succeed if reissued, so the
	// abstraction layer retries it before falling back to MPI.
	ErrRemote
	// ErrRankDead reports a fail-stop peer: the rank named in Error.Rank
	// has crashed and will never rejoin, either observed directly (the
	// dead rank's own call fails fast) or via the collective watchdog (a
	// survivor's operation timed out waiting for the dead peer). Not
	// transient — retrying cannot succeed and the MPI fallback would hang,
	// so the dispatch layer surfaces it for ULFM-style revoke/shrink
	// instead (internal/core).
	ErrRankDead
	// ErrUnreachable reports a live peer on the far side of an active
	// network partition: the rank named in Error.Rank (or the whole far
	// side, when Rank is -1) is healthy but no route reaches it. Not
	// transient within the cut — retrying burns the watchdog budget and
	// the MPI fallback would hang — so the dispatch layer surfaces it to
	// the quorum membership machinery (internal/core), which shrinks on
	// the majority side and fences the minority.
	ErrUnreachable
)

// String names the result code.
func (r Result) String() string {
	switch r {
	case Success:
		return "xcclSuccess"
	case ErrUnsupportedDatatype:
		return "xcclUnsupportedDatatype"
	case ErrUnsupportedOp:
		return "xcclUnsupportedOp"
	case ErrUnsupportedDevice:
		return "xcclUnsupportedDevice"
	case ErrInvalidArgument:
		return "xcclInvalidArgument"
	case ErrInternal:
		return "xcclInternalError"
	case ErrRemote:
		return "xcclRemoteError"
	case ErrRankDead:
		return "xcclRankDead"
	case ErrUnreachable:
		return "xcclUnreachable"
	}
	return fmt.Sprintf("Result(%d)", int(r))
}

// Error makes a Result usable as an errors.Is sentinel: callers write
// errors.Is(err, ccl.ErrInternal) instead of unwrapping to *Error and
// switching on the code.
func (r Result) Error() string { return r.String() }

// Transient reports whether a reissued call may succeed (retry-worthy),
// as opposed to a deterministic capability or argument failure.
func (r Result) Transient() bool { return r == ErrRemote }

// Error is a failed CCL call. The abstraction layer inspects Result to
// decide whether to fall back to the MPI path. Op and Rank, when set,
// identify the failing call site in the message itself, so log lines and
// test failures do not need errors.As to learn which rank's which
// operation produced the error.
type Error struct {
	Backend string
	Result  Result
	Msg     string
	// Op is the lower-case operation name of the failing call ("" when
	// the error is not tied to one call, e.g. comm-init failures).
	Op string
	// Rank is the rank the error is attributed to: the calling rank for
	// injected and argument errors, the dead peer for watchdog verdicts.
	// When the communicator carries global identities (Comm.SetRankIDs),
	// injected and crash errors report that identity, not the local rank.
	// Valid only when Op is set (rank 0 is a real rank); -1 means the
	// failing rank could not be identified.
	Rank int
}

func (e *Error) Error() string {
	if e.Op != "" {
		return fmt.Sprintf("%s: %s: %s (op %s, rank %d)", e.Backend, e.Result, e.Msg, e.Op, e.Rank)
	}
	return fmt.Sprintf("%s: %s: %s", e.Backend, e.Result, e.Msg)
}

// Unwrap exposes the Result sentinel to errors.Is/errors.As chains.
func (e *Error) Unwrap() error {
	if e.Result == Success {
		return nil
	}
	return e.Result
}

// IsTransient reports whether err wraps a transient CCL failure — the
// classification the dispatch layer's retry policy runs on.
func IsTransient(err error) bool {
	var e *Error
	if errors.As(err, &e) {
		return e.Result.Transient()
	}
	return false
}

// Injector is the fault-plan hook consulted at every CCL call site (see
// internal/fault for the standard implementation). All methods take the
// backend name, the calling rank, and the current virtual time; op is the
// lower-case operation name ("allreduce", ..., "send", "recv", "group").
// A nil return means the call proceeds normally.
type Injector interface {
	// OpError reports an error to inject into one collective or p2p call,
	// evaluated before the call enqueues any work.
	OpError(backend, op string, rank int, now time.Duration) *Error
	// OpDelay reports extra straggler latency charged when the rank's
	// part of the operation executes on its stream.
	OpDelay(backend, op string, rank int, now time.Duration) time.Duration
	// CommInitError reports an error that fails communicator creation for
	// the given rank; any failing rank fails the whole init.
	CommInitError(backend string, rank int, now time.Duration) *Error
}

// SizeOverhead is an extra per-operation cost that kicks in once the
// message size reaches Threshold bytes. HCCL's RoCE transport exhibits
// such step curves (descriptor inlining limits) at 16 B and 64 B. When
// DecayBytes is set, the extra fades as Extra·DecayBytes/size beyond
// DecayBytes: large registered-buffer transfers amortize the per-descriptor
// cost away.
type SizeOverhead struct {
	Threshold  int64
	Extra      time.Duration
	DecayBytes int64
}

// Config is a backend's personality: what it supports and what it costs.
type Config struct {
	// Name is the library name, e.g. "nccl".
	Name string
	// Kinds lists the device kinds the backend can drive.
	Kinds []device.Kind
	// Datatypes is the supported element-type set.
	Datatypes map[Datatype]bool
	// Ops is the supported reduction set (per datatype checks are uniform).
	Ops map[RedOp]bool
	// Launch is the fixed overhead charged when a collective or p2p
	// operation starts executing on the stream (kernel launch + proxy).
	Launch time.Duration
	// Channels is the fabric channel budget per transfer — the mechanism
	// behind CCL's large-message bandwidth advantage over MPI.
	Channels int
	// ChunkBytes is the pipeline chunk for transfers.
	ChunkBytes int64
	// HierChunkBytes is the default pipeline chunk for the hierarchical
	// collectives: the payload slice that flows through the intra-node →
	// inter-node → fan-out phases as one pipeline stage. Smaller chunks
	// overlap more but pay more per-hop step costs; the offline tuner
	// sweeps this per backend. 0 selects a 1 MiB default.
	HierChunkBytes int64
	// TreeThreshold is the payload size below which latency-oriented tree
	// algorithms replace bandwidth-oriented rings.
	TreeThreshold int64
	// StepCost is the per-hop proxy/FIFO progress cost charged on every
	// pipelined put inside a collective algorithm. Algorithms with long
	// sequential hop chains (trees, rings) pay it serially; shallow
	// schedules (MSCCL allpairs) pay it once — the structural source of
	// MSCCL's medium-message advantage.
	StepCost time.Duration
	// StepOverheads are size-triggered extra costs charged when one of
	// the five built-in collectives launches (see SizeOverhead). They do
	// not apply to point-to-point operations, matching the paper's
	// observation that the HCCL step curves appear on Allreduce, Reduce,
	// and Bcast.
	StepOverheads []SizeOverhead
	// InterNodePenalty scales wire time for inter-node steps of
	// collective algorithms (protocol/proxy inefficiency), 1.0 = none.
	InterNodePenalty float64
}

// SupportsKind reports whether the backend drives the device kind.
func (cfg *Config) SupportsKind(k device.Kind) bool {
	for _, s := range cfg.Kinds {
		if s == k {
			return true
		}
	}
	return false
}

// stepExtra returns the size-triggered overhead for an n-byte operation.
func (cfg *Config) stepExtra(n int64) time.Duration {
	var extra time.Duration
	for _, so := range cfg.StepOverheads {
		if n < so.Threshold {
			continue
		}
		e := so.Extra
		if so.DecayBytes > 0 && n > so.DecayBytes {
			e = time.Duration(float64(e) * float64(so.DecayBytes) / float64(n))
		}
		extra = e
	}
	return extra
}
