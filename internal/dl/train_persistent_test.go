package dl

import "testing"

// TestTrainPersistentBeatsOneShot pins the tentpole win in the training hot
// loop: the same workload on persistent partitioned handles must report a
// shorter average step (coordOverhead amortized to Init, partition fills
// overlapped with the collective) and therefore higher img/s.
func TestTrainPersistentBeatsOneShot(t *testing.T) {
	cfg := Config{System: "thetagpu", Nodes: 1, BatchSize: 32, Steps: 2, Engine: EngineXCCL}
	base, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Persistent = true
	pers, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pers.StepTime >= base.StepTime {
		t.Fatalf("persistent step %v not faster than one-shot %v", pers.StepTime, base.StepTime)
	}
	if pers.ImgPerSec <= base.ImgPerSec {
		t.Fatalf("persistent img/s %.0f not above one-shot %.0f", pers.ImgPerSec, base.ImgPerSec)
	}
	if pers.Ranks != base.Ranks || pers.Buckets != base.Buckets {
		t.Fatalf("run shape diverged: persistent %d ranks/%d buckets, one-shot %d/%d",
			pers.Ranks, pers.Buckets, base.Ranks, base.Buckets)
	}
}

// TestTrainPersistentIgnoredOffXCCL: non-xCCL engines ignore the flag and
// still train.
func TestTrainPersistentIgnoredOffXCCL(t *testing.T) {
	rep, err := Train(Config{System: "thetagpu", Nodes: 1, BatchSize: 32, Steps: 1,
		Engine: EngineOpenMPI, Persistent: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ImgPerSec <= 0 {
		t.Fatalf("img/s = %f", rep.ImgPerSec)
	}
}
