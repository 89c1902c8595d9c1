package experiments

import (
	"fmt"

	"mpixccl/internal/dl"
	"mpixccl/internal/fault"
)

// elasticSeed fixes the scenario's fault plan; crash rules are
// deterministic anyway (call-counted), but the seed keeps the plan
// constructor uniform with the resilience exhibit.
const elasticSeed = 0xdead

// Elastic demonstrates fail-stop recovery end to end: ResNet-50 data
// parallel on one ThetaGPU node, one rank fail-stops mid-step, the
// survivors' watchdogs detect it, the communicator is revoked and shrunk
// ULFM-style, training rolls back to the last checkpoint and completes on
// 7 GPUs; Options.Crash moves the failure. The exhibit reports the
// per-executed-step latency (the replayed step appears twice — once
// interrupted by detection, once clean on the shrunken world) and the loss
// trajectory across the rollback.
func Elastic(o Options) (*Figure, error) {
	steps, crashStep, crashRank := 6, 4, 5
	if o.Scale == Full {
		steps, crashStep = 12, 6
	}
	if o.Crash.Step != 0 {
		crashRank, crashStep = o.Crash.Rank, o.Crash.Step
	}
	if crashRank < 0 || crashRank >= 8 || crashStep < 1 || crashStep > steps {
		return nil, fmt.Errorf("elastic: crash %d@%d out of range (8 ranks, %d steps)", crashRank, crashStep, steps)
	}
	cfg := dl.Config{
		System: "thetagpu", Nodes: 1, Ranks: 8,
		Steps: steps, Metrics: o.Metrics,
	}
	// The victim dies halfway through crashStep's gradient exchange (call
	// budget counted in fused-bucket allreduces). At the default 4, step 3
	// is complete but not yet checkpointed, so the survivors lose it and
	// the replay is visible in the figure.
	nb := len(dl.FuseBuckets(dl.ResNet50().Tensors, 2<<20))
	cfg.Faults = fault.NewPlan(elasticSeed).AddRule(fault.Rule{
		Name: "fail-stop", Crash: true, Ranks: []int{crashRank}, Op: "allreduce",
		After: (crashStep-1)*nb + nb/2,
	})
	rep, err := dl.TrainElastic(cfg)
	if err != nil {
		return nil, err
	}

	f := &Figure{ID: "elastic", Title: "Elastic training under a fail-stop crash (8→7 GPUs, 1 node)",
		XLabel: "step", Metric: "latency"}
	lat := Series{Name: "step-latency"}
	for i, st := range rep.StepLatency {
		lat.Points = append(lat.Points, Point{X: int64(i + 1), Latency: st})
	}
	// Format renders Value with %.0f (it carries MB/s or img/s elsewhere),
	// so the loss series is scaled to milliunits to survive the rounding.
	loss := Series{Name: "loss (x1000)"}
	for i, l := range rep.Loss {
		loss.Points = append(loss.Points, Point{X: int64(i + 1), Value: l * 1000})
	}
	f.Series = append(f.Series, lat, loss)
	f.Notes = append(f.Notes,
		fmt.Sprintf("ranks %d -> %d after crash of world rank(s) %v", rep.StartRanks, rep.FinalRanks, rep.CrashedRanks),
		fmt.Sprintf("shrinks: %d, rollback steps replayed: %d, checkpoints: %d", rep.Shrinks, rep.RollbackSteps, rep.Checkpoints),
		fmt.Sprintf("final loss %.4f after %d executed steps, %.0f img/s on the shrunken world",
			rep.Loss[len(rep.Loss)-1], len(rep.Loss), rep.ImgPerSec))
	return f, nil
}
