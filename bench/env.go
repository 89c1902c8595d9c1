package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mpixccl/internal/core"
	"mpixccl/internal/metrics"
)

// env is one round's measurement state. Every rank of a simulated world
// shares it: the serial kernel runs one rank goroutine at a time and hands
// control over through channels, so plain fields are ordered by those
// hand-offs without locks.
type env struct {
	seed   uint64
	verify bool
	traced bool
	budget time.Duration // timed work per round, calibrations excluded
	stride int           // the timed phase may end only after a multiple of this many ops
	// calibrated interleaves host-speed calibrations with the timed work
	// (untraced rounds; a traced round's profiles would include them).
	calibrated bool

	reg   *metrics.Registry // wired into the runtime when traced
	stats func() core.Stats // the world's dispatch counters, when it has a runtime

	setupAt, worldAt, setupEnd time.Time
	setupCalib                 time.Duration // calibration just before set-up
	timedAt, endAt             time.Time

	// The timed phase is a run of slices of about sliceLen of work, with a
	// calibration before each slice and one after the last.
	slices  []slice
	calibs  []time.Duration
	sliceAt time.Time
	sliceOp int
	timed   time.Duration // work in closed slices

	decisions []bool // per timed op index: run it or stop
	opFailed  []bool
	callMS    []float64 // host ms of each timed public call on rank 0
	virtUS    float64   // modeled µs per op (see the workloads)
	virtNote  string    // what virtUS means for this workload

	memStart, memEnd runtime.MemStats
	cpuProf          bytes.Buffer
	allocStart       []byte
	allocEnd         []byte
	statsStart       core.Stats
	statsEnd         core.Stats
	countsStart      map[string]float64
	countsEnd        map[string]float64
}

// slice is a stretch of timed work between two calibrations.
type slice struct {
	ops int
	dur time.Duration
}

const sliceLen = 250 * time.Millisecond

// worldBuilt marks the end of world construction (topology, fabric, job,
// runtime); the rest of set-up is communicator creation, persistent Init,
// plan search and warm-up.
func (e *env) worldBuilt() { e.worldAt = time.Now() }

// begin starts the timed phase; the first rank to reach it wins and later
// calls are no-ops. Set-up ends here.
func (e *env) begin() {
	if !e.timedAt.IsZero() {
		return
	}
	e.setupEnd = time.Now()
	if e.worldAt.IsZero() {
		e.worldAt = e.setupEnd
	}
	if e.stats != nil {
		e.statsStart = e.stats()
	}
	if e.traced {
		e.countsStart = registryTotals(e.reg)
		e.allocStart = allocProfile()
	}
	runtime.ReadMemStats(&e.memStart)
	if e.traced {
		// A failed start leaves the buffer empty, and the attribution then
		// reports the missing profile as the round's error.
		_ = pprof.StartCPUProfile(&e.cpuProf)
	}
	if e.calibrated {
		e.calibs = append(e.calibs, calibration())
	}
	e.timedAt = time.Now()
	e.sliceAt = e.timedAt
}

// next reports whether timed op i runs. The first rank to ask about index
// i decides and every other rank reads that decision, so all ranks stop
// after the same op. Slices, and so the phase, end only at multiples of
// e.stride (whole passes of a mixed sequence); op 0 always runs.
func (e *env) next(i int) bool {
	if i < len(e.decisions) {
		return e.decisions[i]
	}
	run := true
	if i > 0 && (e.stride <= 1 || i%e.stride == 0) {
		now := time.Now()
		work := now.Sub(e.sliceAt)
		if work >= sliceLen || e.timed+work >= e.budget {
			e.slices = append(e.slices, slice{ops: i - e.sliceOp, dur: work})
			e.timed += work
			e.sliceOp = i
			if run = e.timed < e.budget; !run {
				e.end()
			}
			if e.calibrated {
				e.calibs = append(e.calibs, calibration())
			}
			e.sliceAt = time.Now()
		}
	}
	e.decisions = append(e.decisions, run)
	return run
}

func (e *env) end() {
	e.endAt = time.Now()
	if e.traced {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&e.memEnd)
	if e.stats != nil {
		e.statsEnd = e.stats()
	}
	if e.traced {
		e.allocEnd = allocProfile()
		e.countsEnd = registryTotals(e.reg)
	}
}

// result records one rank's check of timed op i; an op fails when any
// rank's check fails.
func (e *env) result(i int, ok bool) {
	for len(e.opFailed) <= i {
		e.opFailed = append(e.opFailed, false)
	}
	if !ok {
		e.opFailed[i] = true
	}
}

// call records the host time of one public call on rank 0.
func (e *env) call(d time.Duration) {
	e.callMS = append(e.callMS, float64(d)/float64(time.Millisecond))
}

// ops returns the timed ops attempted and failed.
func (e *env) ops() (attempted, failed int) {
	for i, run := range e.decisions {
		if !run {
			continue
		}
		attempted++
		if i < len(e.opFailed) && e.opFailed[i] {
			failed++
		}
	}
	return attempted, failed
}

// allocProfile snapshots the allocs profile. The profile is published at
// the end of a GC cycle, and a big heap may see none during the timed
// phase, so a collection runs first.
func allocProfile() []byte {
	runtime.GC()
	var b bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&b, 0); err != nil {
		return nil
	}
	return b.Bytes()
}

// registryTotals sums every series of each metric family the per-layer
// counts read, keyed by family name (and protocol for MPI sends).
func registryTotals(reg *metrics.Registry) map[string]float64 {
	out := map[string]float64{}
	if reg == nil {
		return out
	}
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		return out
	}
	samples, err := metrics.ParseText(b.Bytes())
	if err != nil {
		return out
	}
	for key, v := range samples {
		name, labels, _ := strings.Cut(key, "{")
		out[name] += v
		if name == "mpi_sends_total" {
			switch {
			case strings.Contains(labels, `protocol="eager"`):
				out["mpi_sends_total/eager"] += v
			case strings.Contains(labels, `protocol="rendezvous"`):
				out["mpi_sends_total/rendezvous"] += v
			}
		}
	}
	return out
}
