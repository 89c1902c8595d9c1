package dl

import (
	"math"
	"testing"
	"time"

	"mpixccl/internal/fault"
	"mpixccl/internal/metrics"
)

// tinyModel keeps the recovery tests fast: 8 half-MB tensors fuse into 2
// buckets at the default 2 MB threshold, so each step is 2 allreduces
// instead of ResNet-50's ~50 (the elastic experiments exhibit covers the
// full model).
func tinyModel() *Model {
	m := &Model{Name: "tiny"}
	for i := 0; i < 8; i++ {
		m.Tensors = append(m.Tensors, Tensor{Name: "t", Elems: 128 << 10})
	}
	return m
}

// elasticConfig is the shared shape of the recovery tests: 8 NCCL ranks on
// one thetagpu node, checkpointing every 2 steps.
func elasticConfig(reg *metrics.Registry) Config {
	return Config{
		System: "thetagpu", Nodes: 1, Ranks: 8, Model: tinyModel(),
		Steps: 6, Metrics: reg,
	}
}

// buckets of the tiny model at the default fusion threshold.
func tinyBuckets() int {
	return len(FuseBuckets(tinyModel().Tensors, 2<<20))
}

// A crash mid-run rolls the survivors back to the last checkpoint and the
// run completes on the shrunken world, deterministically.
func TestTrainElasticCrashRecovers(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := elasticConfig(reg)
	// Rank 5 dies partway through step 3's bucket loop (after 2 checkpointed
	// steps), so the survivors shrink to 7 and replay step 3 from the
	// step-2 checkpoint.
	nb := tinyBuckets()
	cfg.Faults = fault.NewPlan(7).AddRule(fault.Rule{
		Name: "crash", Crash: true, Ranks: []int{5}, Op: "allreduce",
		After: 2*nb + nb/2,
	})
	rep, err := TrainElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StartRanks != 8 || rep.FinalRanks != 7 {
		t.Errorf("ranks %d -> %d, want 8 -> 7", rep.StartRanks, rep.FinalRanks)
	}
	if len(rep.CrashedRanks) != 1 || rep.CrashedRanks[0] != 5 {
		t.Errorf("CrashedRanks = %v, want [5]", rep.CrashedRanks)
	}
	if rep.Shrinks != 1 {
		t.Errorf("Shrinks = %d, want 1", rep.Shrinks)
	}
	// The crash interrupts step 3 before it completes, and step 2 was just
	// checkpointed — no completed step is lost.
	if rep.RollbackSteps != 0 {
		t.Errorf("RollbackSteps = %d, want 0 (crash interrupted the first step after a checkpoint)", rep.RollbackSteps)
	}
	// All 6 steps complete exactly once; the interrupted attempt at step 3
	// recorded nothing.
	if len(rep.Loss) != 6 {
		t.Fatalf("len(Loss) = %d, want 6", len(rep.Loss))
	}
	// Loss is a pure function of cumulative examples: 2 steps at 8 ranks,
	// then 4 at 7.
	examples := int64(2*8*rep.BatchSize + 4*7*rep.BatchSize)
	if got, want := rep.Loss[5], lossAfter(examples); math.Abs(got-want) > 1e-12 {
		t.Errorf("final loss = %v, want %v", got, want)
	}
	if rep.Checkpoints != 2 {
		t.Errorf("Checkpoints = %d, want 2 (after steps 2 and 4)", rep.Checkpoints)
	}
	if v, ok := reg.CounterValue("xccl_rank_failures_total", metrics.Labels{"backend": "nccl"}); !ok || v != 1 {
		t.Errorf("xccl_rank_failures_total = %v (exists %v), want 1", v, ok)
	}
	if v, ok := reg.CounterValue("xccl_shrink_total", metrics.Labels{"backend": "nccl"}); !ok || v != 1 {
		t.Errorf("xccl_shrink_total = %v (exists %v), want 1", v, ok)
	}
}

// A crash one step before the next checkpoint loses that step: the
// survivors replay it, and the rollback is visible in the counters and in
// the repeated step latencies.
func TestTrainElasticRollbackReplaysLostStep(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := elasticConfig(reg)
	nb := tinyBuckets()
	// Rank 3 dies during step 4's exchange: step 3 completed but was not
	// yet checkpointed, so the survivors roll back one step.
	cfg.Faults = fault.NewPlan(7).AddRule(fault.Rule{
		Name: "crash", Crash: true, Ranks: []int{3}, Op: "allreduce",
		After: 3*nb + nb/2,
	})
	rep, err := TrainElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RollbackSteps != 1 {
		t.Errorf("RollbackSteps = %d, want 1 (step 3 was past the checkpoint)", rep.RollbackSteps)
	}
	// Step 3 executed twice: once at 8 ranks (recorded), then replayed at 7.
	if len(rep.Loss) != 7 {
		t.Fatalf("len(Loss) = %d, want 7 (6 steps + 1 replay)", len(rep.Loss))
	}
	// The replayed step 3 contributes fewer examples than its first
	// execution, so the recorded loss after the replay is higher.
	if rep.Loss[3] <= rep.Loss[2] {
		t.Errorf("replayed-step loss %v should regress past the pre-crash loss %v", rep.Loss[3], rep.Loss[2])
	}
	if v, ok := reg.CounterValue("xccl_rollback_steps_total", metrics.Labels{"model": "tiny"}); !ok || v != 1 {
		t.Errorf("xccl_rollback_steps_total = %v (exists %v), want 1", v, ok)
	}
	if rep.FinalRanks != 7 || rep.Shrinks != 1 {
		t.Errorf("FinalRanks=%d Shrinks=%d, want 7/1", rep.FinalRanks, rep.Shrinks)
	}
}

// Without faults, TrainElastic matches Train's healthy-path shape: no
// shrink, no rollback, monotone loss — and determinism across two runs.
func TestTrainElasticHealthyDeterministic(t *testing.T) {
	run := func() ElasticReport {
		rep, err := TrainElastic(elasticConfig(nil))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Shrinks != 0 || a.RollbackSteps != 0 || len(a.CrashedRanks) != 0 {
		t.Errorf("healthy run reported Shrinks=%d RollbackSteps=%d CrashedRanks=%v", a.Shrinks, a.RollbackSteps, a.CrashedRanks)
	}
	if a.FinalRanks != 8 || len(a.Loss) != 6 {
		t.Errorf("FinalRanks=%d len(Loss)=%d, want 8/6", a.FinalRanks, len(a.Loss))
	}
	for i := 1; i < len(a.Loss); i++ {
		if a.Loss[i] >= a.Loss[i-1] {
			t.Errorf("loss not monotone at step %d: %v -> %v", i, a.Loss[i-1], a.Loss[i])
		}
	}
	if a.StepTime != b.StepTime || a.ImgPerSec != b.ImgPerSec {
		t.Errorf("two identical runs diverged: %v/%v vs %v/%v", a.StepTime, a.ImgPerSec, b.StepTime, b.ImgPerSec)
	}
	for i := range a.Loss {
		if a.Loss[i] != b.Loss[i] {
			t.Errorf("loss diverged at step %d: %v vs %v", i, a.Loss[i], b.Loss[i])
		}
	}
}

// A crash during the very first step (nothing checkpointed yet) restarts
// from step 0 on the survivors and still completes — the whole run stays
// bounded because the watchdog converts the stuck collective into a
// verdict instead of deadlocking the kernel (a hang here would trip the
// test timeout).
func TestTrainElasticFirstStepCrash(t *testing.T) {
	cfg := elasticConfig(nil)
	cfg.Steps = 2
	nb := tinyBuckets()
	cfg.Faults = fault.NewPlan(7).AddRule(fault.Rule{
		Name: "crash", Crash: true, Ranks: []int{1}, Op: "allreduce", After: nb / 2,
	})
	rep, err := TrainElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalRanks != 7 {
		t.Errorf("FinalRanks = %d, want 7", rep.FinalRanks)
	}
	if rep.RollbackSteps != 0 || rep.Shrinks != 1 {
		t.Errorf("RollbackSteps=%d Shrinks=%d, want 0/1 (no step had completed)", rep.RollbackSteps, rep.Shrinks)
	}
	if len(rep.Loss) != 2 {
		t.Errorf("len(Loss) = %d, want 2", len(rep.Loss))
	}
}

// With a spare rank, a crashed run recovers to full width: the heartbeat
// detector confirms the death within half a watchdog, the survivors
// shrink and immediately grow by adopting the spare, and — because every
// completed step runs at the original width — the loss curve is identical
// to a fault-free run.
func TestTrainElasticSparesRecoverFullWidth(t *testing.T) {
	shadow := elasticConfig(nil)
	shadow.Ranks = 7
	want, err := TrainElastic(shadow)
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	cfg := elasticConfig(reg)
	cfg.Ranks, cfg.Spares = 7, 1 // 7 workers + 1 parked spare on the 8-GPU node
	nb := tinyBuckets()
	plan := fault.NewPlan(7).AddRule(fault.Rule{
		Name: "crash", Crash: true, Ranks: []int{5}, Op: "allreduce",
		After: 2*nb + nb/2,
	})
	cfg.Faults = plan
	rep, err := TrainElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StartRanks != 7 || rep.FinalRanks != 7 {
		t.Errorf("ranks %d -> %d, want 7 -> 7 (recovered to full width)", rep.StartRanks, rep.FinalRanks)
	}
	if len(rep.CrashedRanks) != 1 || rep.CrashedRanks[0] != 5 {
		t.Errorf("CrashedRanks = %v, want [5]", rep.CrashedRanks)
	}
	if rep.Shrinks != 1 || rep.Grows != 1 {
		t.Errorf("Shrinks, Grows = %d, %d; want 1, 1", rep.Shrinks, rep.Grows)
	}
	if len(rep.AdoptedRanks) != 1 || rep.AdoptedRanks[0] != 7 {
		t.Errorf("AdoptedRanks = %v, want [7] (the spare's world rank)", rep.AdoptedRanks)
	}
	// Proactive detection: the heartbeat detector (armed by default when
	// spares are configured) confirmed the death well before the 2ms
	// collective watchdog would have.
	diedAt, ok := plan.DeathTime(5)
	if !ok {
		t.Fatal("fault plan did not record rank 5's death time")
	}
	suspectedAt, ok := rep.SuspectedAt[5]
	if !ok {
		t.Fatalf("SuspectedAt = %v, missing rank 5", rep.SuspectedAt)
	}
	const wd = 2 * time.Millisecond // TrainElastic's default watchdog
	if lat := suspectedAt - diedAt; lat <= 0 || lat > wd/2 {
		t.Errorf("detection latency = %v, want within (0, %v]", lat, wd/2)
	}
	// Every completed step ran at 7 ranks, so the whole loss curve — not
	// just the final value — matches the fault-free shadow run.
	if len(rep.Loss) != len(want.Loss) {
		t.Fatalf("len(Loss) = %d, want %d", len(rep.Loss), len(want.Loss))
	}
	for i := range rep.Loss {
		if math.Abs(rep.Loss[i]-want.Loss[i]) > 1e-12 {
			t.Errorf("Loss[%d] = %v, shadow %v", i, rep.Loss[i], want.Loss[i])
		}
	}
	if v, ok := reg.CounterValue("xccl_grow_total", metrics.Labels{"backend": "nccl"}); !ok || v != 1 {
		t.Errorf("xccl_grow_total = %v (exists %v), want 1", v, ok)
	}
}
