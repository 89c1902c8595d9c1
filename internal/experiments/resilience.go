package experiments

import (
	"fmt"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/core"
	"mpixccl/internal/fault"
	"mpixccl/internal/omb"
	"mpixccl/internal/world"
)

// resilienceSeed fixes every fault plan of the scenario: reruns inject the
// same faults at the same calls, so the figure is reproducible.
const resilienceSeed = 0x5eed

// resiliencePlan builds the scenario's fault plan. Each series gets a
// fresh plan (same seed) so one series' draws do not perturb another's.
func resiliencePlan() *fault.Plan {
	p := fault.NewPlan(resilienceSeed)
	// Transient peer failures on ~15% of Allreduce calls: the dispatch
	// layer's bounded retries should absorb them on the CCL path.
	p.AddRule(fault.Rule{
		Name: "flaky-allreduce", Op: "allreduce",
		Result: ccl.ErrRemote, Probability: 0.15,
	})
	// One straggler rank: extra stream latency on a quarter of its calls.
	p.AddRule(fault.Rule{
		Name: "straggler", Op: "allreduce", Ranks: []int{1},
		Delay: 5 * time.Microsecond, Probability: 0.25,
	})
	// A degraded NVLink window early in the run: half bandwidth, half the
	// channel pool. The runtime shrinks its channel budget while active.
	p.AddLinkRule(fault.LinkRule{
		Name: "nvlink-brownout", Link: "intra",
		From: 50 * time.Microsecond, Until: 2 * time.Millisecond,
		BWScale: 0.5, ChannelCap: 6,
	})
	return p
}

// Resilience sweeps Allreduce on one ThetaGPU node under the seeded fault
// plan: transient CCL errors, a straggler rank, and a link-degradation
// window. The hybrid stack must complete the sweep with bounded slowdown
// against its clean run (retries absorb the transients, the breaker and
// fallback absorb anything persistent); the pure-xCCL stack shows the
// same plan without a hybrid table deciding the path.
func Resilience(o Options) (*Figure, error) {
	min, max := collSweep(o.Scale)
	base := omb.Config{System: "thetagpu", Nodes: 1, MinBytes: min, MaxBytes: max,
		Iterations: iters(o.Scale), Metrics: o.Metrics}
	// An unscoped probabilistic rule can fire on the same rank's call
	// repeatedly; a rank that exhausts its retries on a collective falls
	// back to MPI alone and deadlocks against peers still in the CCL op
	// (see docs/ARCHITECTURE.md). A deep retry budget makes exhaustion
	// vanishingly unlikely, and the fixed seed makes the run reproducible.
	base.Resilience = &core.Resilience{
		MaxRetries: 8, BreakerThreshold: 3,
	}
	f := &Figure{ID: "resilience", Title: "Allreduce under injected faults (8 GPUs, 1 node)",
		XLabel: "bytes", Metric: "latency"}

	clean := base
	clean.Stack = world.StackHybrid
	s, err := ombSeries("hybrid/clean", clean, omb.Allreduce)
	if err != nil {
		return nil, err
	}
	f.Series = append(f.Series, s)

	hybridPlan := resiliencePlan()
	faulted := base
	faulted.Stack = world.StackHybrid
	faulted.Faults = hybridPlan
	s, err = ombSeries("hybrid/faulted", faulted, omb.Allreduce)
	if err != nil {
		return nil, err
	}
	f.Series = append(f.Series, s)

	purePlan := resiliencePlan()
	pure := base
	pure.Stack = world.StackPureXCCL
	pure.Faults = purePlan
	s, err = ombSeries("pure-xccl/faulted", pure, omb.Allreduce)
	if err != nil {
		return nil, err
	}
	f.Series = append(f.Series, s)

	f.Notes = append(f.Notes,
		fmt.Sprintf("hybrid plan fired: %d transient errors, %d straggler delays",
			hybridPlan.Fired("flaky-allreduce"), hybridPlan.Fired("straggler")),
		slowdownNote(f.Series[0], f.Series[1]))
	return f, nil
}

// slowdownNote reports the aggregate slowdown of series b over series a.
func slowdownNote(a, b Series) string {
	var ta, tb time.Duration
	for _, p := range a.Points {
		ta += p.Latency
	}
	for _, p := range b.Points {
		tb += p.Latency
	}
	if ta <= 0 {
		return "slowdown: n/a"
	}
	return fmt.Sprintf("slowdown under faults: %.2fx (total %v vs %v)",
		float64(tb)/float64(ta), tb, ta)
}
