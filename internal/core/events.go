package core

import (
	"errors"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/metrics"
	"mpixccl/internal/trace"
)

// The dispatch layer's one instrumentation route. Every dispatch and
// membership site emits one event value through Runtime.emit, and this
// file alone folds it into the three sinks: Stats, the metrics registry
// (Options.Metrics) and the trace recorder (Options.Trace). Metric names,
// help strings, label sets, Stats fields and record shapes are known here
// and nowhere else in the package. Instrumentation costs no virtual time,
// and an event folded with neither sink wired allocates nothing.

// eventKind names what happened.
type eventKind uint8

const (
	evOp        eventKind = iota // an operation completed: collective, persistent wave or barrier
	evFallback                   // a CCL dispatch ran on the MPI path, for cause
	evTuning                     // a hybrid tuning-table lookup decided path
	evRetry                      // a transient CCL failure (err) is reissued
	evBreaker                    // the (backend, op) circuit breaker moved to state to
	evVerdict                    // an operation ended in a first fail-stop or partition verdict
	evRevoke                     // a rank revoked a communicator
	evRetire                     // a Shrink or Grow (op) retired its old context
	evFence                      // a rank fenced itself on a partition's minority side
	evHeartbeat                  // a rank sent one heartbeat round
	evSuspicion                  // the heartbeat detector settled a suspicion (outcome)
)

// fallbackCause is why a CCL dispatch ran on the MPI path.
type fallbackCause uint8

const (
	causeDevice fallbackCause = iota
	causeHostBuffer
	causeDatatype
	causeOp
	causeBreakerOpen
	causeCCLError
)

// suspicionOutcome is how the heartbeat detector settled a suspicion.
type suspicionOutcome uint8

const (
	suspicionConfirmed suspicionOutcome = iota
	suspicionRetracted
	suspicionPartitioned
)

// event is one instrumentation event. Only the fields its kind documents
// are read.
type event struct {
	kind eventKind
	// op is the operation (evRetire: "shrink" or "grow"). Revoke, fence
	// and suspicion records name their own step.
	op OpKind
	// rank is the recording rank: communicator-local, except a
	// suspicion's witness (a world rank). Breaker and retire events belong
	// to the runtime and record rank -1.
	rank int
	// at is when the event happened (evOp: when the operation started).
	at time.Duration

	dur   time.Duration // evOp: elapsed virtual time
	bytes int64         // evOp: payload bytes
	path  Path          // evOp: the executor; evTuning: the decided path

	cause fallbackCause // evFallback
	algo  ccl.Algorithm // evTuning: the band's forced family
	hit   bool          // evTuning: a tuned rule decided (not the default)
	err   error         // evRetry: the transient failure
	to    breakerState  // evBreaker

	dead bool // evVerdict: rank_dead (else rank_unreachable)
	self bool // evVerdict: the verdict names the recording rank

	outcome suspicionOutcome // evSuspicion
	peer    int              // evFence: the fenced world rank; evSuspicion: the suspect's

	members, cut int // evRetire: new member count; alive ranks a Shrink excluded
}

// Metric families the dispatch layer reports.
type family struct{ name, help string }

var (
	famOps        = family{"xccl_ops_total", "Collective operations by dispatch path."}
	famOpBytes    = family{"xccl_op_bytes_total", "Payload bytes moved by collective operations."}
	famOpLatency  = family{"xccl_op_latency_seconds", "Virtual-time collective latency in seconds."}
	famEvents     = family{"xccl_events_total", "Resilience events (retries, breaker transitions)."}
	famFallbacks  = family{"xccl_fallbacks_total", "MPI-path fallbacks by cause (datatype, op, device, host_buffer, ccl_error)."}
	famTuning     = family{"xccl_tuning_lookups_total", "Hybrid-mode tuning-table lookups by decided path and rule hit/miss."}
	famAlgo       = family{"xccl_algo_selections_total", "CCL algorithm families forced by tuned table bands."}
	famRetries    = family{"xccl_retries_total", "CCL-path reissues of transient failures by operation, backend, and result code."}
	famBreaker    = family{"xccl_breaker_transitions_total", "Circuit-breaker state transitions by backend, operation, and target state."}
	famRankFail   = family{"xccl_rank_failures_total", "Fail-stopped ranks, counted once per crash on the dead rank's own detection."}
	famShrink     = family{"xccl_shrink_total", "Completed ULFM-style communicator shrinks."}
	famGrow       = family{"xccl_grow_total", "Completed spare-rank communicator grows."}
	famPartitions = family{"xccl_partitions_total", "Partition episodes handled: quorum shrinks that excluded alive-but-unreachable ranks."}
	famEpoch      = family{"xccl_epoch", "Current membership epoch: completed membership changes (shrinks and grows)."}
	famFenced     = family{"xccl_fenced_ranks_total", "Ranks that fenced themselves on the minority side of a network partition."}
	famHeartbeats = family{"xccl_heartbeats_sent_total", "Heartbeat rounds sent by the failure detector."}
	famSuspicions = family{"xccl_suspicions_total", "Heartbeat suspicions by outcome (confirmed dead, retracted false positive, or partitioned peer)."}
)

// Label values and record events, indexed by the typed reasons above.
var (
	causeLabel     = [...]string{"device", "host_buffer", "datatype", "op", "breaker_open", "ccl_error"}
	breakerEvent   = [...]string{breakerClosed: "breaker_closed", breakerOpen: "breaker_open", breakerHalfOpen: "breaker_half_open"}
	outcomeLabel   = [...]string{"confirmed", "retracted", "partitioned"}
	suspicionEvent = [...]string{"rank_suspected", "suspicion_retracted", "rank_partitioned"}
)

// emit folds one event into Stats, the registry and the recorder.
func (rt *Runtime) emit(ev event) {
	st := &rt.stats
	backend := string(rt.kind)
	op := string(ev.op)
	switch ev.kind {
	case evOp:
		if ev.path == PathCCL {
			st.CCLOps++
		} else {
			st.MPIOps++
		}
		rt.record(trace.Record{Op: op, Path: ev.path.String(), Backend: backend,
			Rank: ev.rank, Bytes: ev.bytes, Start: ev.at, Duration: ev.dur})
	case evFallback:
		switch ev.cause {
		case causeDevice:
			st.Fallbacks.Device++
		case causeHostBuffer:
			st.Fallbacks.HostBuffer++
		case causeDatatype:
			st.Fallbacks.Datatype++
		case causeOp:
			st.Fallbacks.Op++
		case causeBreakerOpen:
			st.BreakerSkips++
			st.Fallbacks.Error++
		case causeCCLError:
			st.Fallbacks.Error++
		}
		rt.count(famFallbacks, metrics.Labels{"op": op, "cause": causeLabel[ev.cause], "backend": backend})
	case evTuning:
		table := "default"
		if ev.hit {
			table = "hit"
		}
		rt.count(famTuning, metrics.Labels{"op": op, "decision": ev.path.String(), "table": table})
		if ev.path != PathMPI && ev.algo != ccl.AlgoAuto {
			rt.count(famAlgo, metrics.Labels{"op": op, "algo": ev.algo.String(), "backend": backend})
		}
	case evRetry:
		st.Retries++
		if rt.opts.Metrics != nil {
			result := "unknown"
			var ce *ccl.Error
			if errors.As(ev.err, &ce) {
				result = ce.Result.String()
			}
			rt.count(famRetries, metrics.Labels{"op": op, "backend": backend, "result": result})
		}
		rt.record(trace.Record{Op: op, Backend: backend, Rank: ev.rank, Event: "retry", Start: ev.at})
	case evBreaker:
		rt.count(famBreaker, metrics.Labels{"backend": backend, "op": op, "to": ev.to.String()})
		rt.record(trace.Record{Op: op, Backend: backend, Rank: -1, Event: breakerEvent[ev.to], Start: ev.at})
	case evVerdict:
		name := "rank_unreachable"
		if ev.dead {
			name = "rank_dead"
		}
		if ev.dead && ev.self {
			// Exactly one rank observes each crash as its own.
			st.RankFailures++
			rt.count(famRankFail, metrics.Labels{"backend": backend})
		}
		rt.record(trace.Record{Op: op, Backend: backend, Rank: ev.rank, Event: name, Start: ev.at})
	case evRevoke:
		rt.record(trace.Record{Op: "revoke", Backend: backend, Rank: ev.rank, Event: "comm_revoked", Start: ev.at})
	case evRetire:
		st.Epoch++
		if rt.opts.Metrics != nil {
			rt.opts.Metrics.Gauge(famEpoch.name, famEpoch.help,
				metrics.Labels{"backend": backend}).Set(float64(st.Epoch))
		}
		name := "comm_grow"
		if ev.op == "shrink" {
			name = "comm_shrink"
		}
		rt.record(trace.Record{Op: op, Backend: backend, Rank: -1, Event: name,
			Start: ev.at, Bytes: int64(ev.members)})
		if ev.op != "shrink" {
			st.Grows++
			rt.count(famGrow, metrics.Labels{"backend": backend})
			break
		}
		st.Shrinks++
		rt.count(famShrink, metrics.Labels{"backend": backend})
		if ev.cut > 0 {
			// A positive cut is one handled partition episode.
			st.Partitions++
			rt.count(famPartitions, metrics.Labels{"backend": backend})
		}
	case evFence:
		st.FencedRanks++
		rt.count(famFenced, metrics.Labels{"backend": backend})
		rt.record(trace.Record{Op: "partition", Backend: backend, Rank: ev.rank, Event: "rank_fenced",
			Start: ev.at, Bytes: int64(ev.peer)})
	case evHeartbeat:
		rt.count(famHeartbeats, metrics.Labels{"backend": backend})
	case evSuspicion:
		if ev.outcome == suspicionConfirmed {
			st.Suspicions++
		}
		rt.count(famSuspicions, metrics.Labels{"backend": backend, "outcome": outcomeLabel[ev.outcome]})
		rt.record(trace.Record{Op: "heartbeat", Backend: backend, Rank: ev.rank,
			Event: suspicionEvent[ev.outcome], Start: ev.at, Bytes: int64(ev.peer)})
	}
}

// count bumps one counter series (a no-op without a registry).
func (rt *Runtime) count(f family, labels metrics.Labels) {
	if reg := rt.opts.Metrics; reg != nil {
		reg.Counter(f.name, f.help, labels).Inc()
	}
}

// record appends rec to the timeline and aggregates it: an event record
// counts into xccl_events_total, an operation record into the op, byte
// and latency families.
func (rt *Runtime) record(rec trace.Record) {
	rt.opts.Trace.Add(rec)
	reg := rt.opts.Metrics
	if reg == nil {
		return
	}
	if rec.Event != "" {
		rt.count(famEvents, metrics.Labels{"event": rec.Event, "op": rec.Op, "backend": rec.Backend})
		return
	}
	rt.count(famOps, metrics.Labels{"op": rec.Op, "path": rec.Path, "backend": rec.Backend,
		"size_bucket": metrics.SizeBucketLabel(rec.Bytes)})
	reg.Counter(famOpBytes.name, famOpBytes.help,
		metrics.Labels{"op": rec.Op, "path": rec.Path}).Add(float64(rec.Bytes))
	reg.Histogram(famOpLatency.name, famOpLatency.help, metrics.LatencyBuckets(),
		metrics.Labels{"op": rec.Op, "path": rec.Path}).ObserveDuration(rec.Duration)
}
