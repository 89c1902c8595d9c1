package core

import (
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/device"
)

// Resilience tunes how the dispatch layer reacts to CCL failures beyond
// the basic fall-back-to-MPI of §1.2: bounded retries for transient
// errors, a per-(backend, operation) circuit breaker that stops paying
// the CCL launch-and-fail cost under persistent errors, and a channel-
// budget reduction while the fabric reports a degraded link.
type Resilience struct {
	// MaxRetries bounds reissues of a transient CCL failure
	// (xcclRemoteError) before the call falls back to MPI, each after a
	// virtual-time backoff (retryBackoff, doubling per attempt). 0
	// disables retries.
	MaxRetries int
	// BreakerThreshold opens the (backend, op) breaker after this many
	// consecutive CCL failures, demoting the op to the MPI path for
	// breakerCooldown before one half-open probe wave goes through. 0
	// disables the breaker.
	BreakerThreshold int
	// WatchdogTimeout arms the CCL collective watchdog: a rank whose
	// stream task waits longer than this for its peers (collective start
	// rendezvous, point-to-point match) abandons the operation with an
	// ErrRankDead verdict instead of blocking forever on a fail-stopped
	// peer, bounding every collective in virtual time. 0 (the default)
	// leaves operations unbounded — pre-fail-stop behavior, and what keeps
	// the non-faulty hot paths allocation-free. The deadline must exceed
	// the largest healthy inter-rank skew (compute imbalance, injected
	// straggler delays) or slow ranks are misread as dead.
	WatchdogTimeout time.Duration
	// HeartbeatInterval arms the proactive heartbeat failure detector:
	// every rank runs a daemon that sends a control-message heartbeat to
	// its peers each interval and accrues suspicion (phi-accrual style,
	// calibrated to observed inter-arrival jitter) against peers whose
	// beats stop. A confirmed suspicion feeds the same ErrRankDead path
	// as the watchdog, so crashes are detected in a few intervals instead
	// of a full collective timeout. 0 (the default) disables the
	// detector. Pick an interval several times smaller than
	// WatchdogTimeout — detection latency is a small multiple of it.
	HeartbeatInterval time.Duration
	// Integrity turns on end-to-end CRC32C verification of fabric data
	// transfers with detect-and-retransmit: a corrupted payload (see
	// fault.CorruptRule) is caught by the checksum and retransmitted, up
	// to MaxRetries times per transfer. Off by default; the transfer hot
	// path is byte-identical in virtual time when off.
	Integrity bool
}

const (
	// retryBackoff is the virtual-time wait before a transient failure's
	// first reissue; it doubles per attempt.
	retryBackoff = 10 * time.Microsecond
	// breakerCooldown is how long an open breaker rejects CCL dispatch
	// before letting one half-open probe wave through.
	breakerCooldown = time.Millisecond
)

// DefaultResilience is the policy used when Options.Resilience is nil.
func DefaultResilience() *Resilience {
	return &Resilience{MaxRetries: 2, BreakerThreshold: 3}
}

// breakerKey scopes one circuit breaker: failures of one operation on one
// backend must not demote the others.
type breakerKey struct {
	backend BackendKind
	op      OpKind
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half_open"
	}
	return "unknown"
}

// breaker is a consecutive-failure circuit breaker in virtual time.
type breaker struct {
	state    breakerState
	fails    int           // consecutive failures while closed
	openedAt time.Duration // virtual time of the open transition
}

// Wave-consistency bookkeeping: a collective deadlocks if its ranks
// disagree on the dispatch path (the CCL side would wait forever for the
// ranks that went to MPI), so a verdict that could differ per rank is
// memoized per call "wave": breaker verdicts, and the size alltoallv looks
// the tuning table up with. The i-th call of op on a communicator forms
// one wave across all its ranks; the first-arriving rank makes the verdict
// and peers of the same wave reuse it.
type waves[T any] struct {
	idx  map[rankKey]int      // per-rank call indices
	open map[waveKey]*wave[T] // in-flight verdicts
}

type wave[T any] struct {
	v      T
	joined int
}

type rankKey struct {
	ctx  int
	op   OpKind
	rank int
}

type waveKey struct {
	ctx int
	op  OpKind
	idx int
}

// join returns the verdict of x's next call of op, made by first when x
// is the first rank of the wave to arrive.
func (w *waves[T]) join(x *Comm, op OpKind, first func() T) T {
	if w.idx == nil {
		w.idx, w.open = make(map[rankKey]int), make(map[waveKey]*wave[T])
	}
	ctx := x.mpi.ContextID()
	rk := rankKey{ctx, op, x.Rank()}
	idx := w.idx[rk]
	w.idx[rk] = idx + 1
	wk := waveKey{ctx, op, idx}
	wv, ok := w.open[wk]
	if !ok {
		wv = &wave[T]{v: first()}
		w.open[wk] = wv
	}
	wv.joined++
	if wv.joined == x.Size() {
		delete(w.open, wk)
	}
	return wv.v
}

func (rt *Runtime) breakerFor(op OpKind) *breaker {
	key := breakerKey{rt.kind, op}
	b, ok := rt.breakers[key]
	if !ok {
		b = &breaker{}
		rt.breakers[key] = b
	}
	return b
}

// allowCCL gates one rank's CCL dispatch on the (backend, op) breaker,
// with wave-consistent verdicts (see above); a denied dispatch is a
// breaker_open fallback. Call it only for ranks whose decision chose the
// CCL path.
func (rt *Runtime) allowCCL(x *Comm, op OpKind) bool {
	if rt.policy.BreakerThreshold <= 0 {
		return true
	}
	allow := rt.breakerWaves.join(x, op, func() bool { return rt.breakerAllow(x, op) })
	if !allow {
		rt.emit(event{kind: evFallback, op: op, cause: causeBreakerOpen})
	}
	return allow
}

// breakerAllow evaluates the breaker once per wave, moving an open breaker
// whose cooldown elapsed into half-open (the probe wave runs on the CCL).
func (rt *Runtime) breakerAllow(x *Comm, op OpKind) bool {
	b := rt.breakerFor(op)
	if b.state != breakerOpen {
		return true
	}
	now := x.mpi.Proc().Now()
	if now-b.openedAt >= breakerCooldown {
		b.state = breakerHalfOpen
		rt.emit(event{kind: evBreaker, op: op, to: breakerHalfOpen, at: now})
		return true
	}
	return false
}

// breakerSuccess records a completed CCL operation: consecutive-failure
// count resets and a half-open probe closes the breaker.
func (rt *Runtime) breakerSuccess(x *Comm, op OpKind) {
	if rt.policy.BreakerThreshold <= 0 {
		return
	}
	b := rt.breakerFor(op)
	b.fails = 0
	if b.state != breakerClosed {
		b.state = breakerClosed
		rt.emit(event{kind: evBreaker, op: op, to: breakerClosed, at: x.mpi.Proc().Now()})
	}
}

// breakerFailure records a failed CCL operation (after retries), which
// falls back to MPI as a ccl_error fallback: a failed half-open probe
// re-opens, and threshold consecutive failures open a closed breaker.
func (rt *Runtime) breakerFailure(x *Comm, op OpKind) {
	rt.emit(event{kind: evFallback, op: op, cause: causeCCLError})
	pol := rt.policy
	if pol.BreakerThreshold <= 0 {
		return
	}
	b := rt.breakerFor(op)
	now := x.mpi.Proc().Now()
	switch b.state {
	case breakerHalfOpen:
		b.state = breakerOpen
		b.fails = 0
		b.openedAt = now
		rt.emit(event{kind: evBreaker, op: op, to: breakerOpen, at: now})
	case breakerClosed:
		b.fails++
		if b.fails >= pol.BreakerThreshold {
			b.state = breakerOpen
			b.fails = 0
			b.openedAt = now
			rt.emit(event{kind: evBreaker, op: op, to: breakerOpen, at: now})
		}
	case breakerOpen:
		// Late failures of the wave that opened the breaker: extend the
		// cooldown from the most recent evidence.
		b.openedAt = now
	}
}

// runResilient executes the CCL path under the retry policy: a transient
// failure (ccl.IsTransient) is reissued after a doubling virtual-time
// backoff, up to MaxRetries times. Transient validation errors fail before
// the rank enqueues its part of the collective, so a retried rank joins
// the same operation its peers are already waiting on.
func (x *Comm) runResilient(op OpKind, cclPath func(cc *ccl.Comm, s *device.Stream) error) error {
	pol := x.rt.policy
	err := x.runCCL(cclPath)
	if pol.MaxRetries <= 0 {
		return err
	}
	backoff := retryBackoff
	for attempt := 0; attempt < pol.MaxRetries && err != nil && ccl.IsTransient(err); attempt++ {
		x.rt.emit(event{kind: evRetry, op: op, rank: x.Rank(), err: err, at: x.mpi.Proc().Now()})
		x.mpi.Proc().Sleep(backoff)
		backoff *= 2
		err = x.runCCL(cclPath)
	}
	return err
}
