package main

// metricDef is one reported metric. End-to-end metrics come from untraced
// rounds and carry the regression bound BENCHMARK.json repeats; per-layer
// metrics come from traced runs and carry none.
type metricDef struct {
	name, unit string
	better     string  // "higher" or "lower"
	bound      float64 // share of the baseline median a metric may worsen by
	// of reads the metric's samples from an untraced round (the reported
	// value is their median over all rounds); nil means it is read from a
	// traced round's Layer map under the metric's name.
	of func(roundResult) []float64
}

func one(f func(roundResult) float64) func(roundResult) []float64 {
	return func(r roundResult) []float64 { return []float64{f(r)} }
}

// endToEnd are the metrics a user of the simulator sees: how fast it runs
// a workload, how long it takes to get going, and how much memory it
// takes. The bounds are set from the recorded baselines (README.md).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25, func(r roundResult) []float64 { return r.SliceRates }},
	{"setup_s", "s", "lower", 0.25, one(func(r roundResult) float64 { return r.SetupS })},
	{"alloc_mb_per_op", "MB", "lower", 0.05, one(func(r roundResult) float64 { return r.AllocMBPerOp })},
	{"rss_peak_mb", "MB", "lower", 0.1, one(func(r roundResult) float64 { return r.RSSMB })},
}

// perLayer is built once: CPU share and allocation per layer, then the
// counts, spans, leak gauge, probes and the tracing overhead.
var perLayer = func() []metricDef {
	var out []metricDef
	for _, l := range layers {
		out = append(out, metricDef{name: l + ".cpu_pct", unit: "%", better: "lower"})
	}
	out = append(out, metricDef{name: "trace.cpu_ms_per_op", unit: "ms", better: "lower"})
	for _, l := range layers {
		out = append(out, metricDef{name: l + ".alloc_mb_per_op", unit: "MB", better: "lower"})
	}
	for _, c := range []struct{ name, unit string }{
		{"core.ccl_ops_per_op", "count"}, {"core.mpi_ops_per_op", "count"},
		{"core.fallbacks_per_op", "count"}, {"core.retries_per_op", "count"},
		{"ccl.launches_per_op", "count"}, {"ccl.transfer_mb_per_op", "MB"},
		{"ccl.group_fused_per_op", "count"},
		{"mpi.eager_sends_per_op", "count"}, {"mpi.rndv_sends_per_op", "count"},
		{"mpi.send_mb_per_op", "MB"},
	} {
		out = append(out, metricDef{name: c.name, unit: c.unit, better: "lower"})
	}
	out = append(out,
		metricDef{"span.call_ms_p50", "ms", "lower", 0, one(func(r roundResult) float64 { return r.CallP50MS })},
		metricDef{"span.call_ms_p90", "ms", "lower", 0, one(func(r roundResult) float64 { return r.CallP90MS })},
		metricDef{"setup.world_ms", "ms", "lower", 0, one(func(r roundResult) float64 { return r.WorldMS })},
		metricDef{"setup.warmup_ms", "ms", "lower", 0, one(func(r roundResult) float64 { return r.WarmupMS })},
		metricDef{"sim.goroutines_left", "count", "lower", 0, one(func(r roundResult) float64 { return float64(r.Goroutines) })},
		metricDef{"sim.heap_live_mb", "MB", "lower", 0, one(func(r roundResult) float64 { return r.HeapLiveMB })},
	)
	for _, p := range probes {
		better := "lower"
		if p.unit == "GB/s" {
			better = "higher"
		}
		out = append(out, metricDef{name: p.name, unit: p.unit, better: better})
	}
	return append(out, metricDef{name: "trace.overhead_frac", unit: "fraction", better: "lower"})
}()
