// Package metrics is a dependency-free, concurrency-safe metrics registry
// for the simulated runtime: counters, gauges, and fixed-bucket histograms,
// keyed by a metric name plus a small label set (op, path, backend,
// size_bucket, ...). It is the aggregate complement to package trace's
// per-record timelines: trace answers "what happened, in order", metrics
// answers "how often and at what cost" after a run — which path the hybrid
// dispatch picked, whether fallback fired, how the tuning table was used.
//
// Timers are virtual-time aware: callers pass sim virtual timestamps
// (sim.Proc.Now values) and histograms observe the elapsed virtual seconds,
// so latency distributions reflect simulated time, not wall time.
//
// Like trace.Recorder, a nil *Registry is a valid no-op sink: every
// constructor returns a nil instrument whose methods do nothing, so hot
// paths thread a registry unconditionally without nil checks.
//
// Output format: WritePrometheus emits the Prometheus text exposition
// format (parsable back with ParseText, used by tests and the -metrics
// flags of cmd/xcclbench and cmd/ombrun).
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricKind discriminates the three instrument families.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Labels name one series within a metric family, e.g.
// {"op": "allreduce", "path": "ccl"}.
type Labels map[string]string

// canonical renders labels as a sorted, Prometheus-syntax label block
// ({a="x",b="y"}), or "" when empty — the series key within a family.
func (l Labels) canonical() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, escapeLabelValue(l[k]))
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabelValue(v string) string {
	// %q handles \ and "; Prometheus additionally wants \n escaped, which
	// %q also covers. Strip the surrounding quotes %q would add by not
	// using it here: do the three escapes by hand.
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// family is one named metric with its type, help text, and series.
type family struct {
	name    string
	help    string
	kind    metricKind
	buckets []float64 // histogram upper bounds, ascending; +Inf implicit
	series  map[string]*series
}

// series is one label combination's state. All numeric state is guarded by
// the owning Registry's mutex.
type series struct {
	labels Labels
	value  float64  // counter / gauge
	counts []uint64 // histogram: per-bucket cumulative-style raw counts
	sum    float64  // histogram
	count  uint64   // histogram
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. A nil *Registry is a valid no-op sink.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns (creating if needed) the named family, panicking on a
// type or bucket redefinition — that is a programming error, not runtime
// input. Help text is fixed by the first registration.
func (r *Registry) family(name, help string, kind metricKind, buckets []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind,
			buckets: append([]float64(nil), buckets...),
			series:  make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.kind, kind))
	}
	if kind == kindHistogram && len(buckets) != len(f.buckets) {
		panic(fmt.Sprintf("metrics: %s histogram re-registered with different buckets", name))
	}
	return f
}

func (f *family) get(labels Labels) *series {
	key := labels.canonical()
	s, ok := f.series[key]
	if !ok {
		cp := make(Labels, len(labels))
		for k, v := range labels {
			cp[k] = v
		}
		s = &series{labels: cp}
		if f.kind == kindHistogram {
			s.counts = make([]uint64, len(f.buckets)+1) // +1 for +Inf
		}
		f.series[key] = s
	}
	return s
}

// Counter is a monotonically increasing count. Nil counters ignore all
// operations.
type Counter struct {
	r *Registry
	s *series
}

// Counter returns the counter for (name, labels), creating it at zero on
// first use. Safe on a nil registry (returns a no-op counter).
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Counter{r: r, s: r.family(name, help, kindCounter, nil).get(labels)}
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative deltas are ignored (counters
// are monotone).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	c.r.mu.Lock()
	c.s.value += v
	c.r.mu.Unlock()
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	return c.s.value
}

// Gauge is a value that can go up and down. Nil gauges ignore all
// operations.
type Gauge struct {
	r *Registry
	s *series
}

// Gauge returns the gauge for (name, labels). Safe on a nil registry.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Gauge{r: r, s: r.family(name, help, kindGauge, nil).get(labels)}
}

// Set assigns the gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.r.mu.Lock()
	g.s.value = v
	g.r.mu.Unlock()
}

// Add shifts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.r.mu.Lock()
	g.s.value += v
	g.r.mu.Unlock()
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.r.mu.Lock()
	defer g.r.mu.Unlock()
	return g.s.value
}

// Histogram is a fixed-bucket distribution. Buckets are upper bounds in
// ascending order; an implicit +Inf bucket catches the rest. Nil
// histograms ignore all operations.
type Histogram struct {
	r *Registry
	f *family
	s *series
}

// Histogram returns the histogram for (name, labels) with the given
// bucket upper bounds (ascending). Safe on a nil registry. Re-registering
// a name with a different bucket count panics.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, kindHistogram, buckets)
	return &Histogram{r: r, f: f, s: f.get(labels)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.r.mu.Lock()
	idx := len(h.f.buckets) // +Inf
	for i, ub := range h.f.buckets {
		if v <= ub {
			idx = i
			break
		}
	}
	h.s.counts[idx]++
	h.s.sum += v
	h.s.count++
	h.r.mu.Unlock()
}

// ObserveDuration records a duration in seconds — the Prometheus base
// unit. Works for both wall and virtual durations.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	return h.s.count
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	return h.s.sum
}

// Timer measures one virtual-time interval against a histogram. The zero
// Timer (and a Timer over a nil histogram) is a no-op. Virtual timestamps
// come from sim.Proc.Now; because sim.Time is a time.Duration offset from
// the simulation epoch, the elapsed interval is their difference.
type Timer struct {
	h     *Histogram
	start time.Duration
}

// StartTimer opens an interval at virtual time now.
func StartTimer(h *Histogram, now time.Duration) Timer {
	return Timer{h: h, start: now}
}

// Stop closes the interval at virtual time now and observes the elapsed
// virtual seconds.
func (t Timer) Stop(now time.Duration) {
	if t.h == nil {
		return
	}
	t.h.Observe((now - t.start).Seconds())
}

// CounterValue reports a counter series' value and whether it exists —
// a test and assertion convenience. Safe on nil (reports 0, false).
func (r *Registry) CounterValue(name string, labels Labels) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok || f.kind != kindCounter {
		return 0, false
	}
	s, ok := f.series[labels.canonical()]
	if !ok {
		return 0, false
	}
	return s.value, true
}

// LatencyBuckets returns the default latency histogram bounds in seconds:
// a 1 µs – 1 s log sweep sized for the simulated operations (sub-10 µs
// kernel launches up to multi-ms large-message collectives).
func LatencyBuckets() []float64 {
	return []float64{
		1e-6, 2e-6, 5e-6,
		1e-5, 2e-5, 5e-5,
		1e-4, 2e-4, 5e-4,
		1e-3, 2e-3, 5e-3,
		1e-2, 5e-2, 1e-1, 1,
	}
}

// SizeBucketLabel maps a payload size to the coarse size-band label used
// on dispatch counters, chosen to straddle the paper's MPI/CCL crossover
// region (≈4–128 KiB).
func SizeBucketLabel(bytes int64) string {
	switch {
	case bytes <= 1<<10:
		return "0-1KiB"
	case bytes <= 16<<10:
		return "1-16KiB"
	case bytes <= 256<<10:
		return "16-256KiB"
	case bytes <= 4<<20:
		return "256KiB-4MiB"
	default:
		return ">4MiB"
	}
}
