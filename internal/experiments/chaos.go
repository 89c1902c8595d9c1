package experiments

import (
	"fmt"
	"strings"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/core"
	"mpixccl/internal/dl"
	"mpixccl/internal/fault"
	"mpixccl/internal/metrics"
	"mpixccl/internal/mpi"
	"mpixccl/internal/world"
)

// Chaos soak: seeded, randomized fault schedules driven end to end through
// the full stack, with hard invariants instead of figures. Each schedule
// draws a scenario from the seed — a collective soak (corruption,
// transient errors, stragglers, and a brownout under the hybrid dispatch)
// or an elastic run (a random fail-stop with a spare rank standing by) —
// and asserts that the run terminates, results are bytewise exact, and
// recovery restores the world. The soak is NOT an exhibit: it never
// appears in IDs(), so golden outputs are untouched; the CLI reaches it
// through -chaos and the test suite through TestChaosSoak.

// chaosRNG is a splitmix64 stream independent of the fault plans' own
// draws (each plan gets a seed from this stream, not the stream itself).
type chaosRNG struct{ state uint64 }

func (r *chaosRNG) raw() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *chaosRNG) float() float64 { return float64(r.raw()>>11) / float64(1<<53) }

func (r *chaosRNG) intn(n int) int { return int(r.float() * float64(n)) }

func (r *chaosRNG) dur(lo, hi time.Duration) time.Duration {
	return lo + time.Duration(r.float()*float64(hi-lo))
}

// chaosDeadline bounds each schedule's wall-clock (not virtual) runtime.
// A schedule that exceeds it has hung — deadlock, livelock, or a runaway
// retry loop — and the soak fails loudly with the offending seed instead
// of wedging CI.
const chaosDeadline = 2 * time.Minute

// RunChaos executes runs randomized schedules derived from seed and
// returns a per-schedule report. The same seed always produces the same
// schedules, faults, and outcomes. A non-nil error means at least one
// invariant was violated; the report names every violation. Schedules
// rotate through three scenarios: a collective soak, an elastic crash
// run, and a partition run (cut, quorum shrink, heal, rejoin).
func RunChaos(seed uint64, runs int, reg *metrics.Registry) (string, error) {
	if runs <= 0 {
		runs = 20
	}
	rng := &chaosRNG{state: seed}
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak: seed %#x, %d schedules\n", seed, runs)
	failures := 0
	for i := 0; i < runs; i++ {
		type result struct {
			line string
			err  error
		}
		done := make(chan result, 1)
		go func(i int) {
			var line string
			var err error
			switch i % 3 {
			case 0:
				line, err = chaosCollective(rng)
			case 1:
				line, err = chaosElastic(rng)
			default:
				line, err = chaosPartition(rng)
			}
			done <- result{line, err}
		}(i)
		var line string
		var err error
		select {
		case res := <-done:
			line, err = res.line, res.err
		case <-time.After(chaosDeadline):
			// The schedule's goroutine is abandoned (it cannot be killed),
			// but the soak fails immediately and names the reproducer.
			return b.String(), fmt.Errorf(
				"chaos: schedule %d of seed %#x exceeded the %v wall-clock deadline (deadlock or livelock; rerun with -chaos seed=%d,runs=%d to reproduce)",
				i, seed, chaosDeadline, seed, i+1)
		}
		if reg != nil {
			outcome := "ok"
			if err != nil {
				outcome = "violated"
			}
			reg.Counter("xccl_chaos_schedules_total",
				"Chaos-soak schedules executed by outcome.",
				metrics.Labels{"outcome": outcome}).Inc()
		}
		if err != nil {
			failures++
			fmt.Fprintf(&b, "schedule %2d: VIOLATION: %v\n", i, err)
			continue
		}
		fmt.Fprintf(&b, "schedule %2d: %s\n", i, line)
	}
	if failures > 0 {
		return b.String(), fmt.Errorf("chaos: %d of %d schedules violated invariants", failures, runs)
	}
	fmt.Fprintf(&b, "all invariants held\n")
	return b.String(), nil
}

// chaosCollective soaks hybrid-dispatch Allreduce on one 8-GPU node under
// payload corruption (healed by end-to-end integrity), transient CCL
// errors, a straggler, and a bandwidth brownout. Payloads are int32 — sum
// is exact and order-independent — so every rank's result is checked
// element-for-element against the analytically computed reduction.
func chaosCollective(rng *chaosRNG) (string, error) {
	const nranks = 8
	rounds := 3 + rng.intn(3)
	counts := make([]int, rounds)
	for i := range counts {
		counts[i] = 1 << (8 + rng.intn(7)) // 1 KB – 256 KB payloads
	}
	plan := fault.NewPlan(rng.raw())
	plan.AddCorruptRule(fault.CorruptRule{
		Name: "wire-flip", Link: "intra",
		Probability: 0.1 + 0.3*rng.float(),
		Count:       4 + rng.intn(8),
		FlipBytes:   1 + rng.intn(3),
	})
	plan.AddRule(fault.Rule{
		Name: "flaky", Op: "allreduce", Result: ccl.ErrRemote, Probability: 0.15,
	})
	plan.AddRule(fault.Rule{
		Name: "straggler", Op: "allreduce", Ranks: []int{rng.intn(nranks)},
		Delay: rng.dur(50*time.Microsecond, 250*time.Microsecond), Probability: 0.5,
	})
	from := rng.dur(20*time.Microsecond, 100*time.Microsecond)
	plan.AddLinkRule(fault.LinkRule{
		Name: "brownout", Link: "intra",
		From: from, Until: from + rng.dur(500*time.Microsecond, 2*time.Millisecond),
		BWScale: 0.4 + 0.4*rng.float(),
	})

	reg := metrics.NewRegistry()
	spec := world.Spec{
		System: "thetagpu", Nodes: 1, Ranks: nranks, Stack: world.StackHybrid,
		Faults: plan, Metrics: reg,
		// Deep retry budget, as the resilience exhibit: an unscoped
		// probabilistic rule that exhausts one rank's retries would demote
		// that rank alone to the MPI path and deadlock against its peers.
		Resilience: &core.Resilience{
			MaxRetries: 8, BreakerThreshold: 3,
			Integrity: true,
		},
	}
	pattern := func(round, rank, i int) int32 {
		return int32((rank+1)*(i%17+1) + round)
	}
	bad := 0
	if err := world.Run(spec, func(r world.Rank) {
		x := r.(*core.Comm)
		max := counts[0]
		for _, c := range counts {
			if c > max {
				max = c
			}
		}
		send := x.Device().MustMalloc(int64(max) * 4)
		recv := x.Device().MustMalloc(int64(max) * 4)
		defer send.Free()
		defer recv.Free()
		for round, count := range counts {
			for i := 0; i < count; i++ {
				send.SetInt32(i, pattern(round, x.Rank(), i))
			}
			x.Allreduce(send, recv, count, mpi.Int32, mpi.OpSum)
			if ferr := x.Failure(); ferr != nil {
				bad++
				return
			}
			for i := 0; i < count; i++ {
				var want int32
				for r := 0; r < nranks; r++ {
					want += pattern(round, r, i)
				}
				if got := recv.Int32(i); got != want {
					bad++
					return
				}
			}
		}
	}); err != nil {
		return "", fmt.Errorf("collective soak did not terminate: %w", err)
	}
	if bad > 0 {
		return "", fmt.Errorf("collective soak: %d ranks saw failures or inexact sums", bad)
	}
	if v, ok := reg.CounterValue("xccl_corruptions_unrecovered_total",
		metrics.Labels{"link": "intra"}); ok && v > 0 {
		return "", fmt.Errorf("collective soak: %v corruptions survived the retransmit budget", v)
	}
	healed, _ := reg.CounterValue("xccl_corruptions_detected_total", metrics.Labels{"link": "intra"})
	return fmt.Sprintf("collective soak: %d rounds exact; %d corruptions healed, %d transients retried, %d straggler delays",
		rounds, int(healed), plan.Fired("flaky"), plan.Fired("straggler")), nil
}

// chaosElastic trains with a random fail-stop and one spare rank: the
// heartbeat detector must confirm the death within half a watchdog, the
// world must grow back to full width, and the final loss must equal a
// fault-free run's — the recovered run processed exactly the same
// examples.
func chaosElastic(rng *chaosRNG) (string, error) {
	const nranks, steps = 4, 6
	model := &dl.Model{Name: "chaos-mlp"}
	for i := 0; i < 8; i++ {
		model.Tensors = append(model.Tensors, dl.Tensor{Name: "fc", Elems: 128 << 10})
	}
	pol := core.DefaultResilience()
	pol.WatchdogTimeout = 2 * time.Millisecond
	pol.HeartbeatInterval = pol.WatchdogTimeout / 8
	pol.MaxRetries = 8
	pol.Integrity = true
	cfg := dl.Config{
		System: "thetagpu", Nodes: 1, Ranks: nranks, Spares: 1,
		Model: model, Steps: steps,
		Persistent: rng.intn(2) == 1,
		Resilience: pol,
	}
	shadow := cfg
	shadow.Spares = 0
	shadow.Faults = nil
	want, err := dl.TrainElastic(shadow)
	if err != nil {
		return "", fmt.Errorf("elastic shadow run: %w", err)
	}

	crashRank := rng.intn(nranks)
	crashStep := 2 + rng.intn(steps-2)
	nb := len(dl.FuseBuckets(model.Tensors, 2<<20))
	// No brownouts here: a retraction's widened model could legitimately
	// push confirmation past the latency bound this scenario asserts.
	plan := fault.NewPlan(rng.raw()).AddRule(fault.Rule{
		Name: "fail-stop", Crash: true, Ranks: []int{crashRank}, Op: "allreduce",
		After: (crashStep-1)*nb + 1 + rng.intn(nb-1),
	})
	cfg.Faults = plan
	rep, err := dl.TrainElastic(cfg)
	if err != nil {
		return "", fmt.Errorf("elastic run (crash %d@%d): %w", crashRank, crashStep, err)
	}
	tag := fmt.Sprintf("crash %d@%d, persistent=%v", crashRank, crashStep, cfg.Persistent)
	if rep.FinalRanks != nranks {
		return "", fmt.Errorf("elastic %s: final ranks %d, want %d", tag, rep.FinalRanks, nranks)
	}
	if rep.Shrinks != 1 || rep.Grows != 1 {
		return "", fmt.Errorf("elastic %s: shrinks %d grows %d, want 1 and 1", tag, rep.Shrinks, rep.Grows)
	}
	if len(rep.CrashedRanks) != 1 || rep.CrashedRanks[0] != crashRank {
		return "", fmt.Errorf("elastic %s: crashed ranks %v", tag, rep.CrashedRanks)
	}
	diedAt, ok := plan.DeathTime(crashRank)
	if !ok {
		return "", fmt.Errorf("elastic %s: fault plan recorded no death", tag)
	}
	suspectedAt, ok := rep.SuspectedAt[crashRank]
	if !ok {
		return "", fmt.Errorf("elastic %s: detector never confirmed the death (suspected %v)", tag, rep.SuspectedAt)
	}
	if lat := suspectedAt - diedAt; lat <= 0 || lat > pol.WatchdogTimeout/2 {
		return "", fmt.Errorf("elastic %s: detection latency %v outside (0, %v]", tag, lat, pol.WatchdogTimeout/2)
	}
	if len(rep.Loss) != steps+rep.RollbackSteps {
		return "", fmt.Errorf("elastic %s: %d loss entries for %d steps + %d replayed",
			tag, len(rep.Loss), steps, rep.RollbackSteps)
	}
	got, wantLoss := rep.Loss[len(rep.Loss)-1], want.Loss[len(want.Loss)-1]
	if got != wantLoss {
		return "", fmt.Errorf("elastic %s: final loss %v, fault-free shadow %v", tag, got, wantLoss)
	}
	return fmt.Sprintf("elastic %s: recovered to %d ranks in %v, loss matches fault-free run",
		tag, rep.FinalRanks, suspectedAt-diedAt), nil
}

// chaosPartition trains across a randomized network partition on 2 nodes
// (12 ranks: 8 majority, 4 minority): the cut opens at a random point in
// the run, the majority must quorum-shrink and keep stepping, the
// minority must fence. Two thirds of the draws heal the cut — the fenced
// ranks must then rejoin to full width and the final loss must equal the
// fault-free run's. The rest are permanent — the majority must finish at
// width 8 and the fenced ranks must exit cleanly when the job drains.
func chaosPartition(rng *chaosRNG) (string, error) {
	const nranks, steps = 12, 6
	model := &dl.Model{Name: "chaos-mlp"}
	for i := 0; i < 8; i++ {
		model.Tensors = append(model.Tensors, dl.Tensor{Name: "fc", Elems: 128 << 10})
	}
	cfg := dl.Config{
		System: "thetagpu", Nodes: 2, Ranks: nranks,
		Model: model, Steps: steps,
		Persistent: rng.intn(2) == 1,
	}
	shadow := cfg
	want, err := dl.TrainElastic(shadow)
	if err != nil {
		return "", fmt.Errorf("partition shadow run: %w", err)
	}
	var total time.Duration
	for _, l := range want.StepLatency {
		total += l
	}
	total += time.Duration(want.Checkpoints) * dl.CheckpointTime(model)

	// The cut opens somewhere in the middle 30-60% of the fault-free
	// timeline, so it is always observed by a later dispatch (the replay
	// only extends the run).
	cut := time.Duration(float64(total) * (0.3 + 0.3*rng.float()))
	heals := rng.intn(3) > 0
	var heal time.Duration
	if heals {
		heal = cut + rng.dur(total/6, total/2)
	}
	cfg.Faults = fault.NewPlan(rng.raw()).AddPartitionRule(fault.PartitionRule{
		Name: "chaos-cut", Nodes: []int{1}, From: cut, Until: heal,
	})
	rep, err := dl.TrainElastic(cfg)
	if err != nil {
		return "", fmt.Errorf("partition run (cut %v heal %v): %w", cut, heal, err)
	}
	tag := fmt.Sprintf("cut %v heals=%v, persistent=%v", cut, heals, cfg.Persistent)
	if rep.Partitions != 1 || rep.Shrinks != 1 || rep.FencedRanks != 4 {
		return "", fmt.Errorf("partition %s: partitions %d shrinks %d fenced %d, want 1, 1, 4",
			tag, rep.Partitions, rep.Shrinks, rep.FencedRanks)
	}
	if len(rep.CrashedRanks) != 0 {
		return "", fmt.Errorf("partition %s: crashed ranks %v (a severed rank is alive)", tag, rep.CrashedRanks)
	}
	if !heals {
		if rep.FinalRanks != 8 || rep.Grows != 0 {
			return "", fmt.Errorf("partition %s: final ranks %d grows %d, want 8 and 0", tag, rep.FinalRanks, rep.Grows)
		}
		return fmt.Sprintf("partition %s: majority finished at 8 ranks, minority fenced cleanly", tag), nil
	}
	if rep.FinalRanks != nranks || rep.Grows < 1 {
		return "", fmt.Errorf("partition %s: final ranks %d grows %d, want %d and >=1", tag, rep.FinalRanks, rep.Grows, nranks)
	}
	if rep.Epoch != rep.Shrinks+rep.Grows {
		return "", fmt.Errorf("partition %s: epoch %d, want shrinks+grows = %d", tag, rep.Epoch, rep.Shrinks+rep.Grows)
	}
	got, wantLoss := rep.Loss[len(rep.Loss)-1], want.Loss[len(want.Loss)-1]
	if got != wantLoss {
		return "", fmt.Errorf("partition %s: final loss %v, fault-free shadow %v", tag, got, wantLoss)
	}
	return fmt.Sprintf("partition %s: healed to %d ranks after %d rollback steps, loss matches fault-free run",
		tag, rep.FinalRanks, rep.RollbackSteps), nil
}
