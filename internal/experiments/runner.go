package experiments

import (
	"context"
	"runtime"
	"runtime/pprof"
	"time"
)

// RunResult is one experiment's outcome from RunAll. Output and Err mirror
// the return values of Run; Wall is the host wall-clock time the
// experiment took (virtual time lives inside Output).
type RunResult struct {
	ID     string
	Output string
	Err    error
	Wall   time.Duration
}

// RunAll executes the given experiments across a bounded worker pool and
// returns results in the order of ids, regardless of completion order.
// Each experiment builds its own simulation kernel and world, so scenarios
// are independent and their virtual-time results are identical to a serial
// run; only host wall-clock ordering changes. workers <= 0 means one worker
// per available CPU; workers == 1 degenerates to a serial run.
//
// The shared o.Metrics registry (may be nil) is safe for concurrent use, but
// note that with workers > 1 the aggregation order of histogram samples is
// not deterministic — counters and sums still converge to the same totals.
//
// Each experiment runs under a pprof label pair {experiment: id}, so CPU
// profiles taken while RunAll executes attribute samples per experiment.
func RunAll(ids []string, o Options, workers int) []RunResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ids) {
		workers = len(ids)
	}
	results := make([]RunResult, len(ids))
	next := make(chan int)
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := range next {
				id := ids[i]
				start := time.Now()
				pprof.Do(context.Background(), pprof.Labels("experiment", id), func(context.Context) {
					out, err := Run(id, o)
					results[i] = RunResult{ID: id, Output: out, Err: err}
				})
				results[i].Wall = time.Since(start)
			}
		}()
	}
	for i := range ids {
		next <- i
	}
	close(next)
	for w := 0; w < workers; w++ {
		<-done
	}
	return results
}
