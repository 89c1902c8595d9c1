package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"mpixccl/internal/metrics"
)

// roundResult is what one child process reports about its round, as one
// JSON line on standard output. The parent adds the child's peak RSS.
type roundResult struct {
	Workload  string `json:"workload"`
	Traced    bool   `json:"traced"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Error     string `json:"error,omitempty"`

	TimedS    float64 `json:"timed_s"`     // work in the timed phase, calibrations excluded
	RawSetupS float64 `json:"raw_setup_s"` // set-up wall time
	// SetupS and SliceRates are scaled to the reference host speed (see
	// calib.go); traced rounds are not calibrated and leave them empty.
	SetupS       float64   `json:"setup_s,omitempty"`
	SliceRates   []float64 `json:"slice_rates,omitempty"` // ops per reference second, per slice
	WorldMS      float64   `json:"world_ms"`
	WarmupMS     float64   `json:"warmup_ms"`
	AllocMBPerOp float64   `json:"alloc_mb_per_op"`
	HeapLiveMB   float64   `json:"heap_live_mb"`
	Goroutines   int       `json:"goroutines_left"`
	CallP50MS    float64   `json:"call_ms_p50"`
	CallP90MS    float64   `json:"call_ms_p90"`
	VirtUS       float64   `json:"virt_us_per_op"`
	VirtNote     string    `json:"virt_note,omitempty"`
	RSSMB        float64   `json:"rss_peak_mb"`
	CalibMS      float64   `json:"calib_ms"`

	// Layer holds the traced round's per-layer metrics by name.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// rawOpsPerS is the round's throughput in plain host seconds.
func (r roundResult) rawOpsPerS() float64 {
	if r.TimedS <= 0 {
		return 0
	}
	return float64(r.Attempted) / r.TimedS
}

const mb = 1e6

// runChild runs one round of a workload in this process and prints its
// result. Any error still prints a result, so the parent can count it.
func runChild(w workload, seed uint64, budget time.Duration, traced, verify bool) {
	if traced {
		runtime.MemProfileRate = 64 << 10
	}
	res := measureRound(w, seed, budget, traced, verify)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encode round:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func measureRound(w workload, seed uint64, budget time.Duration, traced, verify bool) roundResult {
	res := roundResult{Workload: w.name, Traced: traced}
	e := &env{seed: seed, verify: verify, traced: traced, budget: budget, calibrated: !traced}
	if traced {
		e.reg = metrics.NewRegistry()
	} else {
		e.setupCalib = calibration() // also allocates its buffers before the baseline below
	}
	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	goroutines := runtime.NumGoroutine()
	e.setupAt = time.Now()
	err := w.run(e)
	if e.timedAt.IsZero() {
		if err == nil {
			err = fmt.Errorf("workload never reached its timed phase")
		}
		res.Error = err.Error()
		return res
	}
	if e.endAt.IsZero() {
		e.end() // an error cut the timed phase short
	}
	if err != nil {
		res.Error = err.Error()
	}
	res.Attempted, res.Failed = e.ops()
	res.TimedS = e.timed.Seconds()
	res.RawSetupS = e.setupEnd.Sub(e.setupAt).Seconds()
	res.WorldMS = ms(e.worldAt.Sub(e.setupAt))
	res.WarmupMS = ms(e.setupEnd.Sub(e.worldAt))
	if len(e.calibs) > 0 {
		res.SetupS = res.RawSetupS * scale(e.setupCalib, e.calibs[0])
		var cs []float64
		for k, sl := range e.slices {
			if k+1 < len(e.calibs) {
				res.SliceRates = append(res.SliceRates, float64(sl.ops)/sl.dur.Seconds()/scale(e.calibs[k], e.calibs[k+1]))
			}
		}
		for _, c := range e.calibs {
			cs = append(cs, ms(c))
		}
		res.CalibMS = median(cs)
	}
	if res.Attempted > 0 {
		res.AllocMBPerOp = float64(e.memEnd.TotalAlloc-e.memStart.TotalAlloc) / mb / float64(res.Attempted)
	}
	sort.Float64s(e.callMS)
	res.CallP50MS = percentile(e.callMS, 50)
	res.CallP90MS = percentile(e.callMS, 90)
	res.VirtUS, res.VirtNote = e.virtUS, e.virtNote

	// What a finished world still pins: leaked processes keep their
	// goroutines and everything those reference alive.
	e.stats = nil
	runtime.GC()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.HeapLiveMB = (float64(after.HeapAlloc) - float64(base.HeapAlloc)) / mb
	res.Goroutines = runtime.NumGoroutine() - goroutines

	if traced {
		layer, err := layerMetrics(e, res.Attempted)
		if err != nil && res.Error == "" {
			res.Error = err.Error()
		}
		res.Layer = layer
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// scale converts host seconds measured between two calibrations to
// reference seconds: a host running slower than the reference took longer
// than the reference would have.
func scale(before, after time.Duration) float64 {
	return float64(calibRef(runtime.GOMAXPROCS(0))) / (float64(before+after) / 2)
}

// layerMetrics turns a traced round's profiles, counters and probes into
// the per-layer metrics.
func layerMetrics(e *env, ops int) (map[string]float64, error) {
	out := map[string]float64{}
	perOp := func(v float64) float64 {
		if ops == 0 {
			return 0
		}
		return v / float64(ops)
	}

	cpu, total, err := attribute(e.cpuProf.Bytes(), "cpu")
	if err != nil {
		return out, fmt.Errorf("cpu profile: %w", err)
	}
	out["trace.cpu_ms_per_op"] = perOp(float64(total) / 1e6)
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(cpu[l]) / float64(total)
		}
		out[l+".cpu_pct"] = share
	}

	before, _, err := attribute(e.allocStart, "alloc_space")
	if err != nil {
		return out, fmt.Errorf("allocs profile: %w", err)
	}
	after, _, err := attribute(e.allocEnd, "alloc_space")
	if err != nil {
		return out, fmt.Errorf("allocs profile: %w", err)
	}
	for _, l := range layers {
		out[l+".alloc_mb_per_op"] = perOp(float64(after[l]-before[l]) / mb)
	}

	s0, s1 := e.statsStart, e.statsEnd
	fb := func(f struct{ Datatype, Op, Device, HostBuffer, Error int }) int {
		return f.Datatype + f.Op + f.Device + f.HostBuffer + f.Error
	}
	out["core.ccl_ops_per_op"] = perOp(float64(s1.CCLOps - s0.CCLOps))
	out["core.mpi_ops_per_op"] = perOp(float64(s1.MPIOps - s0.MPIOps))
	out["core.fallbacks_per_op"] = perOp(float64(fb(s1.Fallbacks) - fb(s0.Fallbacks)))
	out["core.retries_per_op"] = perOp(float64(s1.Retries - s0.Retries))
	delta := func(name string) float64 { return perOp(e.countsEnd[name] - e.countsStart[name]) }
	out["ccl.launches_per_op"] = delta("ccl_launches_total")
	out["ccl.transfer_mb_per_op"] = delta("ccl_transfer_bytes_total") / mb
	out["ccl.group_fused_per_op"] = delta("ccl_group_fused_ops_total")
	out["mpi.eager_sends_per_op"] = delta("mpi_sends_total/eager")
	out["mpi.rndv_sends_per_op"] = delta("mpi_sends_total/rendezvous")
	out["mpi.send_mb_per_op"] = delta("mpi_send_bytes_total") / mb

	pr, err := runProbes()
	for k, v := range pr {
		out[k] = v
	}
	return out, err
}
