package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrentIncrements(t *testing.T) {
	reg := NewRegistry()
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine resolves its own handle, as concurrent sim
			// procs do; all handles must hit the same underlying series.
			c := reg.Counter("test_total", "test", Labels{"op": "allreduce"})
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	got, ok := reg.CounterValue("test_total", Labels{"op": "allreduce"})
	if !ok || got != workers*perWorker {
		t.Fatalf("CounterValue = %v, %v; want %d, true", got, ok, workers*perWorker)
	}
}

func TestCounterNegativeAddIgnored(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("neg_total", "test", nil)
	c.Add(5)
	c.Add(-3)
	if v := c.Value(); v != 5 {
		t.Fatalf("counter after negative Add = %v, want 5", v)
	}
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("depth", "test", Labels{"backend": "nccl"})
	g.Set(4)
	g.Add(-1)
	if v := g.Value(); v != 3 {
		t.Fatalf("gauge = %v, want 3", v)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "test", []float64{1, 2, 5}, nil)
	// Observations exactly on a boundary belong to that bucket (le is
	// "less than or equal"), one past it spills to the next.
	for _, v := range []float64{0.5, 1, 1.0001, 2, 5, 7} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	vals, err := ParseText(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		`lat_seconds_bucket{le="1"}`:    2, // 0.5 and 1
		`lat_seconds_bucket{le="2"}`:    4, // cumulative: + 1.0001, 2
		`lat_seconds_bucket{le="5"}`:    5, // + 5
		`lat_seconds_bucket{le="+Inf"}`: 6, // + 7
		`lat_seconds_count`:             6,
		`lat_seconds_sum`:               0.5 + 1 + 1.0001 + 2 + 5 + 7,
	}
	for k, w := range want {
		if got, ok := vals[k]; !ok || got != w {
			t.Errorf("%s = %v, %v; want %v", k, got, ok, w)
		}
	}
	if h.Count() != 6 {
		t.Errorf("Count() = %d, want 6", h.Count())
	}
}

func TestTimerVirtualTime(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("t_seconds", "test", []float64{0.001, 1}, nil)
	tm := StartTimer(h, 40*time.Millisecond)
	tm.Stop(65 * time.Millisecond)
	if h.Count() != 1 {
		t.Fatalf("Count = %d, want 1", h.Count())
	}
	if got := h.Sum(); got < 0.0249 || got > 0.0251 {
		t.Fatalf("Sum = %v, want 0.025 (virtual elapsed)", got)
	}
}

func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ops_total", "Operations issued.", Labels{"op": "bcast", "path": "ccl"}).Add(3)
	reg.Counter("ops_total", "Operations issued.", Labels{"op": "bcast", "path": "mpi"}).Inc()
	reg.Gauge("channels", "Configured channels.", Labels{"backend": "nccl"}).Set(2)
	h := reg.Histogram("lat_seconds", "Latency.", []float64{0.5, 1}, nil)
	h.Observe(0.25)
	h.Observe(2)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP channels Configured channels.",
		"# TYPE channels gauge",
		`channels{backend="nccl"} 2`,
		"# HELP lat_seconds Latency.",
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.5"} 1`,
		`lat_seconds_bucket{le="1"} 1`,
		`lat_seconds_bucket{le="+Inf"} 2`,
		"lat_seconds_sum 2.25",
		"lat_seconds_count 2",
		"# HELP ops_total Operations issued.",
		"# TYPE ops_total counter",
		`ops_total{op="bcast",path="ccl"} 3`,
		`ops_total{op="bcast",path="mpi"} 1`,
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Fatalf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestParseTextRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total", "a", Labels{"x": "1"}).Add(7)
	reg.Histogram("b_seconds", "b", []float64{1}, nil).Observe(0.5)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	vals, err := ParseText(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if vals[Key("a_total", Labels{"x": "1"})] != 7 {
		t.Errorf("a_total round trip failed: %v", vals)
	}
	if vals[`b_seconds_bucket{le="+Inf"}`] != 1 {
		t.Errorf("histogram +Inf bucket lost: %v", vals)
	}
}

func TestNilRegistryIsSafe(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x_total", "x", nil)
	c.Inc()
	c.Add(2)
	g := reg.Gauge("y", "y", nil)
	g.Set(1)
	h := reg.Histogram("z_seconds", "z", []float64{1}, nil)
	h.Observe(0.5)
	StartTimer(h, 0).Stop(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil-registry instruments must read zero")
	}
	if _, ok := reg.CounterValue("x_total", nil); ok {
		t.Fatal("nil registry CounterValue must report not-found")
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry WritePrometheus = %v, %q", err, buf.String())
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("m_total", "m", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	reg.Gauge("m_total", "m", nil)
}

func TestSizeBucketLabel(t *testing.T) {
	cases := map[int64]string{
		0:         "0-1KiB",
		1024:      "0-1KiB",
		1025:      "1-16KiB",
		16 << 10:  "1-16KiB",
		256 << 10: "16-256KiB",
		4 << 20:   "256KiB-4MiB",
		5 << 20:   ">4MiB",
	}
	for bytes, want := range cases {
		if got := SizeBucketLabel(bytes); got != want {
			t.Errorf("SizeBucketLabel(%d) = %q, want %q", bytes, got, want)
		}
	}
}
