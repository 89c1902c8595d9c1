package trace

import "mpixccl/internal/metrics"

// This file bridges the per-record timeline to the aggregate registry, so
// one instrumentation pass (the trace.Record emitted per collective) yields
// both the Chrome-trace export and the Prometheus-style counters.

// Canonical metric families fed from trace records (core.Options.Metrics
// wires a registry through RecordMetrics).
const (
	// MetricOps counts operations per (op, path, backend, size_bucket).
	MetricOps = "xccl_ops_total"
	// MetricOpBytes accumulates payload bytes per (op, path).
	MetricOpBytes = "xccl_op_bytes_total"
	// MetricOpLatency is the per-op virtual-latency histogram (seconds),
	// labeled by (op, path).
	MetricOpLatency = "xccl_op_latency_seconds"
	// MetricEvents counts resilience events (retries, breaker transitions)
	// per (event, op, backend).
	MetricEvents = "xccl_events_total"
)

// RecordMetrics feeds one record's aggregates into reg: the op counter, the
// byte counter, and the latency histogram. Safe on a nil registry.
func RecordMetrics(reg *metrics.Registry, rec Record) {
	if reg == nil {
		return
	}
	if rec.Event != "" {
		reg.Counter(MetricEvents, "Resilience events (retries, breaker transitions).",
			metrics.Labels{"event": rec.Event, "op": rec.Op, "backend": rec.Backend}).Inc()
		return
	}
	reg.Counter(MetricOps, "Collective operations by dispatch path.", metrics.Labels{
		"op": rec.Op, "path": rec.Path, "backend": rec.Backend,
		"size_bucket": metrics.SizeBucketLabel(rec.Bytes),
	}).Inc()
	reg.Counter(MetricOpBytes, "Payload bytes moved by collective operations.", metrics.Labels{
		"op": rec.Op, "path": rec.Path,
	}).Add(float64(rec.Bytes))
	reg.Histogram(MetricOpLatency, "Virtual-time collective latency in seconds.",
		metrics.LatencyBuckets(), metrics.Labels{
			"op": rec.Op, "path": rec.Path,
		}).ObserveDuration(rec.Duration)
}
