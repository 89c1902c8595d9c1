package dl

import (
	"math"
	"testing"
	"time"

	"mpixccl/internal/fault"
	"mpixccl/internal/metrics"
)

// The full partition arc on a 2-node, 12-rank job: a time-windowed cut
// severs node 1 (ranks 8-11) mid-training, the 8-rank majority
// quorum-shrinks and keeps stepping, the fenced minority waits out the
// cut and rejoins through Grow with a checkpoint restore, and the run
// finishes at full width. Checkpoints are suppressed while shrunk and
// the regrow rolls the majority back to the pre-cut checkpoint, so the
// final loss is exactly the fault-free run's — the partition cost time,
// not examples.
func TestTrainElasticPartitionHealsToFullLoss(t *testing.T) {
	base := Config{
		System: "thetagpu", Nodes: 2, Ranks: 12, Model: tinyModel(),
		Steps: 6,
	}
	shadow := base
	want, err := TrainElastic(shadow)
	if err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	cfg := base
	cfg.Metrics = reg
	// Steps run ~37ms of virtual time each (batch 32 at the A100 rate), so
	// the cut opens during step 3 — after the step-2 checkpoint — and
	// heals during step 5 of the shrunken majority's replay.
	cut, heal := 80*time.Millisecond, 150*time.Millisecond
	cfg.Faults = fault.NewPlan(7).AddPartitionRule(fault.PartitionRule{
		Name: "cut-node1", Nodes: []int{1}, From: cut, Until: heal,
	})
	rep, err := TrainElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StartRanks != 12 || rep.FinalRanks != 12 {
		t.Errorf("ranks %d -> %d, want 12 -> 12 (healed to full width)", rep.StartRanks, rep.FinalRanks)
	}
	if len(rep.CrashedRanks) != 0 {
		t.Errorf("CrashedRanks = %v, want none (a severed rank is alive)", rep.CrashedRanks)
	}
	if rep.Partitions != 1 {
		t.Errorf("Partitions = %d, want 1", rep.Partitions)
	}
	if rep.FencedRanks != 4 {
		t.Errorf("FencedRanks = %d, want 4 (all of node 1)", rep.FencedRanks)
	}
	if rep.Shrinks != 1 {
		t.Errorf("Shrinks = %d, want 1", rep.Shrinks)
	}
	if rep.Grows < 1 {
		t.Errorf("Grows = %d, want >= 1 (the rejoin)", rep.Grows)
	}
	if rep.Epoch != rep.Shrinks+rep.Grows {
		t.Errorf("Epoch = %d, want Shrinks+Grows = %d", rep.Epoch, rep.Shrinks+rep.Grows)
	}
	if len(rep.AdoptedRanks) != 4 {
		t.Errorf("AdoptedRanks = %v, want the 4 rejoined ranks", rep.AdoptedRanks)
	}
	if rep.RollbackSteps == 0 {
		t.Error("RollbackSteps = 0, want > 0 (shrunk-width steps are replayed)")
	}
	// The partition must cost time, not examples: the recorder replays the
	// rolled-back steps (longer Loss trace) but the final loss — a pure
	// function of cumulative examples — matches the fault-free shadow.
	if len(rep.Loss) <= len(want.Loss) {
		t.Errorf("len(Loss) = %d, want > %d (replayed steps appear twice)", len(rep.Loss), len(want.Loss))
	}
	got, fwant := rep.Loss[len(rep.Loss)-1], want.Loss[len(want.Loss)-1]
	if math.Abs(got-fwant) > 1e-12 {
		t.Errorf("final loss = %v, shadow %v", got, fwant)
	}
	for key, min := range map[string]float64{
		"xccl_partitions_total":   1,
		"xccl_fenced_ranks_total": 4,
	} {
		if v, ok := reg.CounterValue(key, metrics.Labels{"backend": "nccl"}); !ok || v < min {
			t.Errorf("%s = %v (exists %v), want >= %v", key, v, ok, min)
		}
	}
}

// A cut that never heals degrades gracefully: the majority finishes the
// run at the shrunken width (its Grow polls keep returning ErrNoSpares),
// and the fenced minority exits when the job drains — no deadlock.
func TestTrainElasticPartitionPermanentCutShrinks(t *testing.T) {
	cfg := Config{
		System: "thetagpu", Nodes: 2, Ranks: 12, Model: tinyModel(),
		Steps: 6,
	}
	cfg.Faults = fault.NewPlan(7).AddPartitionRule(fault.PartitionRule{
		Name: "cut-node1", Nodes: []int{1}, From: 80 * time.Millisecond,
	})
	rep, err := TrainElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StartRanks != 12 || rep.FinalRanks != 8 {
		t.Errorf("ranks %d -> %d, want 12 -> 8 (majority trains on)", rep.StartRanks, rep.FinalRanks)
	}
	if rep.Partitions != 1 || rep.FencedRanks != 4 || rep.Grows != 0 {
		t.Errorf("Partitions, FencedRanks, Grows = %d, %d, %d; want 1, 4, 0",
			rep.Partitions, rep.FencedRanks, rep.Grows)
	}
}

// Determinism under partitions: same config + same fault plan = same
// report, including the membership verdicts and the loss trace.
func TestTrainElasticPartitionDeterministic(t *testing.T) {
	run := func() ElasticReport {
		cfg := Config{
			System: "thetagpu", Nodes: 2, Ranks: 12, Model: tinyModel(),
			Steps: 6,
		}
		cfg.Faults = fault.NewPlan(7).AddPartitionRule(fault.PartitionRule{
			Name: "cut-node1", Nodes: []int{1},
			From: 80 * time.Millisecond, Until: 150 * time.Millisecond,
		})
		rep, err := TrainElastic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Partitions != b.Partitions || a.FencedRanks != b.FencedRanks || a.Epoch != b.Epoch {
		t.Errorf("membership verdicts diverged: %+v vs %+v", a, b)
	}
	if len(a.Loss) != len(b.Loss) {
		t.Fatalf("len(Loss) diverged: %d vs %d", len(a.Loss), len(b.Loss))
	}
	for i := range a.Loss {
		if a.Loss[i] != b.Loss[i] {
			t.Fatalf("Loss[%d] diverged: %v vs %v", i, a.Loss[i], b.Loss[i])
		}
	}
	for i := range a.StepLatency {
		if a.StepLatency[i] != b.StepLatency[i] {
			t.Fatalf("StepLatency[%d] diverged: %v vs %v", i, a.StepLatency[i], b.StepLatency[i])
		}
	}
}
