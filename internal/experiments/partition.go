package experiments

import (
	"fmt"
	"time"

	"mpixccl/internal/dl"
	"mpixccl/internal/fault"
)

// partitionSeed fixes the exhibit's fault plan; the cut itself is
// deterministic (Probability 0), the seed keeps the constructor uniform
// with the other fault exhibits.
const partitionSeed = 0xcafe

// Partition demonstrates failure model v3 end to end: ResNet-50 data
// parallel on 2 ThetaGPU nodes (12 ranks: 8 on node 0, 4 on node 1), a
// network partition severs node 1 mid-step, the 8-rank majority wins the
// quorum vote, shrinks, and keeps training; the 4-rank minority fences
// itself. After the cut heals the fenced ranks rejoin through the spare
// pool with a checkpoint restore, the majority's Grow rolls everyone back
// to the pre-cut checkpoint, and the run finishes at full width with the
// fault-free loss — the partition cost time, not examples.
//
// The cut window is calibrated from a fault-free shadow run of the same
// shape, so it lands mid-step regardless of scale. Both runs are
// deterministic: same scale + same Options.Partition = same figure.
func Partition(o Options) (*Figure, error) {
	steps, cutStep, healStep := 6, 3, 5
	if o.Scale == Full {
		steps, cutStep, healStep = 12, 6, 9
	}
	if o.Partition.Step != 0 {
		cutStep, healStep = o.Partition.Step, o.Partition.Heal
	}
	if cutStep < 1 || cutStep > steps || (healStep != 0 && healStep <= cutStep) {
		return nil, fmt.Errorf("partition: cut %d heal %d out of range (%d steps, heal must follow cut)", cutStep, healStep, steps)
	}
	base := dl.Config{
		System: "thetagpu", Nodes: 2, Ranks: 12,
		Steps: steps,
	}

	// Shadow run: fault-free, same shape. It anchors the cut window to
	// virtual step boundaries and provides the loss curve the healed run
	// must reproduce.
	shadow, err := dl.TrainElastic(base)
	if err != nil {
		return nil, fmt.Errorf("partition: shadow run: %w", err)
	}
	ckptTime := dl.CheckpointTime(dl.ResNet50())
	boundary := make([]time.Duration, len(shadow.StepLatency)+1)
	for i, l := range shadow.StepLatency {
		boundary[i+1] = boundary[i] + l
		if (i+1)%dl.CheckpointEvery == 0 && i+1 < steps {
			boundary[i+1] += ckptTime
		}
	}
	avgStep := boundary[len(boundary)-1] / time.Duration(len(shadow.StepLatency))
	cut := boundary[cutStep-1] + shadow.StepLatency[cutStep-1]/2
	heal := time.Duration(0)
	if healStep != 0 {
		heal = cut + time.Duration(healStep-cutStep)*avgStep
	}

	cfg := base
	cfg.Metrics = o.Metrics
	cfg.Faults = fault.NewPlan(partitionSeed).AddPartitionRule(fault.PartitionRule{
		Name: "cut-node1", Nodes: []int{1}, From: cut, Until: heal,
	})
	rep, err := dl.TrainElastic(cfg)
	if err != nil {
		return nil, err
	}

	f := &Figure{ID: "partition",
		Title:  "Elastic training across a network partition (12 ranks, 2 nodes; node 1 severed)",
		XLabel: "step", Metric: "latency"}
	lat := Series{Name: "step-latency"}
	for i, st := range rep.StepLatency {
		lat.Points = append(lat.Points, Point{X: int64(i + 1), Latency: st})
	}
	// Format renders Value with %.0f, so the loss is scaled to milliunits.
	loss := Series{Name: "loss (x1000)"}
	for i, l := range rep.Loss {
		loss.Points = append(loss.Points, Point{X: int64(i + 1), Value: l * 1000})
	}
	f.Series = append(f.Series, lat, loss)
	f.Notes = append(f.Notes,
		fmt.Sprintf("cut opens mid-step %d; %s", cutStep, healNote(healStep)),
		fmt.Sprintf("partitions handled: %d, ranks fenced: %d, membership epoch: %d (shrinks %d + grows %d)",
			rep.Partitions, rep.FencedRanks, rep.Epoch, rep.Shrinks, rep.Grows),
		fmt.Sprintf("ranks %d -> %d, rollback steps replayed: %d", rep.StartRanks, rep.FinalRanks, rep.RollbackSteps),
		fmt.Sprintf("final loss %.4f after %d executed steps (fault-free shadow: %.4f)",
			rep.Loss[len(rep.Loss)-1], len(rep.Loss), shadow.Loss[len(shadow.Loss)-1]))
	return f, nil
}

func healNote(healStep int) string {
	if healStep == 0 {
		return "never heals (majority finishes at the shrunken width)"
	}
	return fmt.Sprintf("heals around step %d (minority rejoins via Grow)", healStep)
}
