package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds float64 // measured seconds per workload
	traced  bool
	rounds  int
	verify  bool
}

// Per-invocation limits. A single workload must finish well inside three
// minutes even when a child hangs; -workload all gets the same allowance
// per workload.
const (
	invocationCap = 160 * time.Second
	roundSlack    = 45 * time.Second // per-round allowance beyond its timed budget
)

// childProcs is the GOMAXPROCS a workload's children run with: its
// threads of useful work, capped at the host's CPUs.
func childProcs(wl workload) int {
	if n := runtime.NumCPU(); n < wl.procs {
		return n
	}
	return wl.procs
}

// hostFacts are recorded with every result, since host time only compares
// across runs on the same kind of host.
type hostFacts struct {
	NProc     int    `json:"nproc"`
	GoVersion string `json:"go_version"`
}

func currentHost() hostFacts {
	return hostFacts{NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
}

// report is one workload's aggregated result: the unit of output, of the
// -out file and of compare.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Traced    bool               `json:"traced"`
	Host      hostFacts          `json:"host"`
	Procs     int                `json:"gomaxprocs"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Rounds    int                `json:"rounds"`
	Metrics   map[string]float64 `json:"metrics"`
	Spread    map[string]float64 `json:"spread,omitempty"` // IQR / median of the samples
	Samples   map[string]int     `json:"samples,omitempty"`
	VirtUS    float64            `json:"virt_us_per_op"`
	VirtNote  string             `json:"virt_note,omitempty"`
	// Host-second figures behind the reference-speed metrics, with the
	// median calibration that converts between them (untraced rounds).
	RawOpsPerS float64 `json:"raw_ops_per_s,omitempty"`
	RawSetupS  float64 `json:"raw_setup_s,omitempty"`
	CalibMS    float64 `json:"calib_ms,omitempty"`
}

func (r *report) correct() bool { return r.Failed == 0 && len(r.Errors) == 0 }

// run measures the workloads, interleaving their rounds round-robin so slow
// drift of host speed spreads evenly across them, and prints every metric.
func run(ws []workload, cfg runConfig, outPath string, w io.Writer) error {
	rounds := cfg.rounds
	switch {
	case rounds <= 0 && cfg.traced:
		rounds = 4
	case rounds <= 0:
		rounds = 5
	case rounds < 2 && cfg.traced:
		rounds = 2 // an untraced and a traced round
	}
	budget := time.Duration(cfg.seconds / float64(rounds) * float64(time.Second))
	host := currentHost()
	fmt.Fprintf(w, "# mpixccl bench: nproc=%d %s seed=%d seconds=%g rounds=%d trace=%v verify=%v\n",
		host.NProc, host.GoVersion, cfg.seed, cfg.seconds, rounds, cfg.traced, cfg.verify)

	deadline := time.Now().Add(invocationCap * time.Duration(len(ws)))
	results := map[string][]roundResult{}
	for r := 0; r < rounds; r++ {
		for _, wl := range ws {
			// Traced mode alternates untraced and traced rounds, so the
			// overhead estimate compares rounds taken side by side.
			traced := cfg.traced && r%2 == 1
			timeout := time.Until(deadline)
			if timeout <= 0 {
				results[wl.name] = append(results[wl.name], roundResult{Workload: wl.name, Traced: traced,
					Attempted: 1, Failed: 1, Error: "invocation time cap reached"})
				continue
			}
			if timeout > budget+roundSlack {
				timeout = budget + roundSlack
			}
			results[wl.name] = append(results[wl.name], runRound(wl, cfg, traced, budget, timeout))
		}
	}

	var out *os.File
	if outPath != "" {
		f, err := os.OpenFile(outPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close() // error paths only; success closes below and checks
		out = f
	}
	var last *report
	for _, wl := range ws {
		rep := aggregate(wl, cfg, host, results[wl.name])
		printReport(w, rep)
		if out != nil {
			line, err := json.Marshal(rep)
			if err != nil {
				return err
			}
			if _, err := out.Write(append(line, '\n')); err != nil {
				return err
			}
		}
		last = rep
	}
	if out != nil {
		if err := out.Close(); err != nil {
			return err
		}
	}
	if len(ws) == 1 {
		return printContract(w, last)
	}
	return nil
}

// runRound runs one round in a fresh child process. A crashed or timed-out
// child counts as one failed op and marks the run incorrect.
func runRound(wl workload, cfg runConfig, traced bool, budget, timeout time.Duration) roundResult {
	failed := func(err error) roundResult {
		return roundResult{Workload: wl.name, Traced: traced, Attempted: 1, Failed: 1, Error: err.Error()}
	}
	exe, err := os.Executable()
	if err != nil {
		return failed(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-child", "-workload", wl.name, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(budget.Seconds(), 'g', -1, 64), "-trace", trace}
	if cfg.verify {
		args = append(args, "-verify")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs(wl)))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if ctx.Err() != nil {
		return failed(fmt.Errorf("round timed out after %v", timeout))
	}
	if err != nil {
		return failed(fmt.Errorf("child: %w", err))
	}
	var res roundResult
	if err := json.Unmarshal(lastLine(stdout), &res); err != nil {
		return failed(fmt.Errorf("child result: %w", err))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.RSSMB = float64(ru.Maxrss) * 1024 / mb // Linux reports KiB
	}
	if res.Attempted == 0 {
		res.Attempted, res.Failed = 1, 1
	}
	return res
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// aggregate reduces a workload's rounds to its report: every metric is the
// median of its samples from the rounds that completed without error.
func aggregate(wl workload, cfg runConfig, host hostFacts, rounds []roundResult) *report {
	rep := &report{Workload: wl.name, Seed: cfg.seed, Traced: cfg.traced, Host: host, Procs: childProcs(wl),
		Rounds: len(rounds), Metrics: map[string]float64{}, Spread: map[string]float64{}, Samples: map[string]int{}}
	var plain, traced []roundResult
	for _, r := range rounds {
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
		if r.Error != "" {
			rep.Errors = append(rep.Errors, r.Error)
			continue
		}
		if r.Traced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		if r.VirtUS != 0 {
			if rep.VirtUS != 0 && rep.VirtUS != r.VirtUS {
				rep.Errors = append(rep.Errors, fmt.Sprintf("modeled time differs between rounds: %v vs %v µs", rep.VirtUS, r.VirtUS))
			}
			rep.VirtUS, rep.VirtNote = r.VirtUS, r.VirtNote
		}
	}
	// Values JSON cannot carry (no samples, a zero median's spread) are
	// left out; they read as 0.
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	set := func(name string, rs []roundResult, of func(roundResult) []float64) {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, of(r)...)
		}
		s := summarize(xs)
		rep.Samples[name] = s.N
		if finite(s.Median) {
			rep.Metrics[name] = s.Median
		}
		if sp := s.spread(); s.N > 1 && finite(sp) {
			rep.Spread[name] = sp
		}
	}
	if !cfg.traced {
		for _, m := range endToEnd {
			set(m.name, plain, m.of)
		}
		var raw, setup, calib []float64
		for _, r := range plain {
			raw = append(raw, r.rawOpsPerS())
			setup = append(setup, r.RawSetupS)
			calib = append(calib, r.CalibMS)
		}
		rep.RawOpsPerS, rep.RawSetupS, rep.CalibMS = median(raw), median(setup), median(calib)
		return rep
	}
	for _, m := range perLayer {
		switch {
		case m.name == "trace.overhead_frac":
			var u, t []float64
			for _, r := range plain {
				u = append(u, r.rawOpsPerS())
			}
			for _, r := range traced {
				t = append(t, r.rawOpsPerS())
			}
			if v := 1 - median(t)/median(u); finite(v) {
				rep.Metrics[m.name] = v
			}
		case m.of != nil:
			set(m.name, plain, m.of)
		default:
			name := m.name
			set(name, traced, one(func(r roundResult) float64 { return r.Layer[name] }))
		}
	}
	return rep
}

// printReport writes one line per metric, with its unit and sample count.
func printReport(w io.Writer, rep *report) {
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	for _, m := range defs {
		extra := ""
		if n, ok := rep.Samples[m.name]; ok {
			extra = fmt.Sprintf("  (median of %d samples from %d rounds, IQR/median %.3f)", n, rep.Rounds, rep.Spread[m.name])
		}
		fmt.Fprintf(w, "%-16s %-28s %14.6g %-8s%s\n", rep.Workload, m.name, rep.Metrics[m.name], m.unit, extra)
	}
	if !rep.Traced {
		fmt.Fprintf(w, "%-16s host seconds: %.6g ops/s, set-up %.6g s; calibration %.4g ms (reference %v), GOMAXPROCS %d\n",
			rep.Workload, rep.RawOpsPerS, rep.RawSetupS, rep.CalibMS, calibRef(rep.Procs), rep.Procs)
	}
	fmt.Fprintf(w, "%-16s %-28s %14.6g %-6s  (%s; a check, not a metric)\n", rep.Workload, "virt_us_per_op",
		rep.VirtUS, "us", rep.VirtNote)
	fmt.Fprintf(w, "%-16s %-28s %14d %-6s  failed %d (failed_frac %.4g)\n", rep.Workload, "ops_attempted",
		rep.Attempted, "count", rep.Failed, float64(rep.Failed)/math.Max(1, float64(rep.Attempted)))
	for _, e := range rep.Errors {
		fmt.Fprintf(w, "%-16s error: %s\n", rep.Workload, e)
	}
}

// printContract writes the machine-readable last line.
func printContract(w io.Writer, rep *report) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if rep.Traced {
		defs = perLayer
	}
	ms := map[string]value{}
	for _, m := range defs {
		ms[m.name] = value{rep.Metrics[m.name], m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct(), rep.Attempted, rep.Failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
