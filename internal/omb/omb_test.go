package omb

import (
	"slices"
	"strings"
	"testing"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/ccl/comp"
	"mpixccl/internal/core"
	"mpixccl/internal/fabric"
	"mpixccl/internal/metrics"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
	"mpixccl/internal/world"
)

func find(results []Result, bytes int64) Result {
	for _, r := range results {
		if r.Bytes == bytes {
			return r
		}
	}
	return Result{}
}

func TestSizesSweep(t *testing.T) {
	s := Sizes(4, 64)
	want := []int64{4, 8, 16, 32, 64}
	if len(s) != len(want) {
		t.Fatalf("sizes = %v", s)
	}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("sizes = %v", s)
		}
	}
}

// Fig 3a/b: intra-node NCCL latency — ~20 µs small-message floor (launch
// overhead) and ≈56 µs at 4 MB.
func TestPt2PtLatencyNCCLIntraNode(t *testing.T) {
	res, err := RunPt2Pt(Config{System: "thetagpu", Nodes: 1, MinBytes: 4, MaxBytes: 4 << 20, Iterations: 2}, LatencyBench)
	if err != nil {
		t.Fatal(err)
	}
	small := find(res, 4).Latency
	if small < 18*time.Microsecond || small > 35*time.Microsecond {
		t.Errorf("4B latency = %v, want ≈20-30µs (launch floor)", small)
	}
	large := find(res, 4<<20).Latency
	if large < 45*time.Microsecond || large > 75*time.Microsecond {
		t.Errorf("4MB latency = %v, want ≈56µs", large)
	}
}

// Fig 3c: NCCL intra-node bandwidth ≈137 031 MB/s at 4 MB.
func TestPt2PtBandwidthNCCLIntraNode(t *testing.T) {
	res, err := RunPt2Pt(Config{System: "thetagpu", Nodes: 1, MinBytes: 1 << 20, MaxBytes: 4 << 20, Iterations: 2}, BandwidthBench)
	if err != nil {
		t.Fatal(err)
	}
	bw := find(res, 4<<20).BandwidthMBs
	if bw < 100000 || bw > 145000 {
		t.Errorf("4MB bandwidth = %.0f MB/s, want ≈137000", bw)
	}
}

// Fig 3d: bidirectional bandwidth ≈181 204 MB/s — more than unidirectional
// but well under 2×.
func TestPt2PtBiBandwidthNCCLIntraNode(t *testing.T) {
	uni, err := RunPt2Pt(Config{System: "thetagpu", Nodes: 1, MinBytes: 4 << 20, MaxBytes: 4 << 20, Iterations: 2}, BandwidthBench)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := RunPt2Pt(Config{System: "thetagpu", Nodes: 1, MinBytes: 4 << 20, MaxBytes: 4 << 20, Iterations: 2}, BiBandwidthBench)
	if err != nil {
		t.Fatal(err)
	}
	u, b := uni[0].BandwidthMBs, bi[0].BandwidthMBs
	if b <= u*1.1 {
		t.Errorf("bibw %.0f not > bw %.0f", b, u)
	}
	if b >= u*1.9 {
		t.Errorf("bibw %.0f suspiciously close to 2× bw %.0f", b, u)
	}
}

// Fig 4: inter-node latency at 4 MB ≈255 µs for NCCL.
func TestPt2PtLatencyNCCLInterNode(t *testing.T) {
	res, err := RunPt2Pt(Config{System: "thetagpu", Nodes: 2, MinBytes: 4 << 20, MaxBytes: 4 << 20, Iterations: 2}, LatencyBench)
	if err != nil {
		t.Fatal(err)
	}
	lat := res[0].Latency
	if lat < 200*time.Microsecond || lat > 320*time.Microsecond {
		t.Errorf("inter-node 4MB latency = %v, want ≈255µs", lat)
	}
}

// HCCL's point-to-point on Voyager: ≈1651 µs at 4 MB (270 µs launch +
// ~1380 µs wire).
func TestPt2PtLatencyHCCLIntraNode(t *testing.T) {
	res, err := RunPt2Pt(Config{System: "voyager", Nodes: 1, MinBytes: 4 << 20, MaxBytes: 4 << 20, Iterations: 2}, LatencyBench)
	if err != nil {
		t.Fatal(err)
	}
	lat := res[0].Latency
	if lat < 1400*time.Microsecond || lat > 1900*time.Microsecond {
		t.Errorf("HCCL 4MB latency = %v, want ≈1651µs", lat)
	}
}

// RCCL on MRI: ≈836 µs at 4 MB, ≈6351 MB/s peak.
func TestPt2PtRCCLCalibration(t *testing.T) {
	lat, err := RunPt2Pt(Config{System: "mri", Nodes: 1, MinBytes: 4 << 20, MaxBytes: 4 << 20, Iterations: 2}, LatencyBench)
	if err != nil {
		t.Fatal(err)
	}
	if l := lat[0].Latency; l < 600*time.Microsecond || l > 1000*time.Microsecond {
		t.Errorf("RCCL 4MB latency = %v, want ≈700-840µs", l)
	}
	bw, err := RunPt2Pt(Config{System: "mri", Nodes: 1, MinBytes: 4 << 20, MaxBytes: 4 << 20, Iterations: 2}, BandwidthBench)
	if err != nil {
		t.Fatal(err)
	}
	if b := bw[0].BandwidthMBs; b < 5000 || b > 7000 {
		t.Errorf("RCCL bandwidth = %.0f MB/s, want ≈6351", b)
	}
}

// Fig 1a's shape: on 4 nodes / 32 GPUs, MPI allreduce beats pure NCCL for
// small messages and loses for large ones, crossing over in the tens of KB.
func TestFig1aCrossoverShape(t *testing.T) {
	cfg := Config{System: "thetagpu", Nodes: 4, MinBytes: 256, MaxBytes: 1 << 20, Iterations: 1}
	cfg.Stack = world.StackMPI
	mpiRes, err := RunCollective(cfg, Allreduce)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Stack = world.StackPureCCL
	ncclRes, err := RunCollective(cfg, Allreduce)
	if err != nil {
		t.Fatal(err)
	}
	small := find(mpiRes, 256).Latency < find(ncclRes, 256).Latency
	large := find(mpiRes, 1<<20).Latency > find(ncclRes, 1<<20).Latency
	if !small {
		t.Errorf("MPI (%v) not faster than NCCL (%v) at 256B",
			find(mpiRes, 256).Latency, find(ncclRes, 256).Latency)
	}
	if !large {
		t.Errorf("NCCL (%v) not faster than MPI (%v) at 1MB",
			find(ncclRes, 1<<20).Latency, find(mpiRes, 1<<20).Latency)
	}
}

// The hybrid design must track the winner on both sides of the crossover
// (Fig 5 claim: pure-xCCL ≈ vendor CCL, hybrid better for small messages).
func TestHybridTracksWinner(t *testing.T) {
	base := Config{System: "thetagpu", Nodes: 1, MinBytes: 256, MaxBytes: 4 << 20, Iterations: 1}
	hyb := base
	hyb.Stack = world.StackHybrid
	hybRes, err := RunCollective(hyb, Allreduce)
	if err != nil {
		t.Fatal(err)
	}
	pure := base
	pure.Stack = world.StackPureXCCL
	pureRes, err := RunCollective(pure, Allreduce)
	if err != nil {
		t.Fatal(err)
	}
	if h, p := find(hybRes, 256).Latency, find(pureRes, 256).Latency; h >= p {
		t.Errorf("hybrid (%v) not faster than pure xCCL (%v) at 256B", h, p)
	}
	h, p := find(hybRes, 4<<20).Latency, find(pureRes, 4<<20).Latency
	ratio := float64(h) / float64(p)
	if ratio > 1.05 {
		t.Errorf("hybrid (%v) slower than pure xCCL (%v) at 4MB", h, p)
	}
}

// §4.3 claim: the proposed pure-xCCL layer adds only marginal overhead over
// the raw vendor CCL (±3% in the paper; we allow a slightly wider band for
// the extra MPI entry hop).
func TestPureXCCLOverheadSmall(t *testing.T) {
	base := Config{System: "thetagpu", Nodes: 1, MinBytes: 64 << 10, MaxBytes: 4 << 20, Iterations: 2}
	x := base
	x.Stack = world.StackPureXCCL
	xr, err := RunCollective(x, Allreduce)
	if err != nil {
		t.Fatal(err)
	}
	p := base
	p.Stack = world.StackPureCCL
	pr, err := RunCollective(p, Allreduce)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xr {
		over := float64(xr[i].Latency)/float64(pr[i].Latency) - 1
		if over > 0.08 || over < -0.05 {
			t.Errorf("size %d: xCCL overhead vs pure CCL = %+.1f%%", xr[i].Bytes, over*100)
		}
	}
}

// The proposed design must beat Open MPI + UCX + UCC at 4 KB (paper: 1.1×
// for allreduce, 2.8× for alltoall).
func TestBeatsUCCAt4KB(t *testing.T) {
	base := Config{System: "thetagpu", Nodes: 1, MinBytes: 4 << 10, MaxBytes: 4 << 10, Iterations: 2}
	hyb := base
	hyb.Stack = world.StackHybrid
	ucc := base
	ucc.Stack = world.StackUCC
	for _, op := range []Collective{Allreduce, Alltoall} {
		hr, err := RunCollective(hyb, op)
		if err != nil {
			t.Fatal(err)
		}
		ur, err := RunCollective(ucc, op)
		if err != nil {
			t.Fatal(err)
		}
		if hr[0].Latency >= ur[0].Latency {
			t.Errorf("%s at 4KB: hybrid %v not faster than UCC %v", op, hr[0].Latency, ur[0].Latency)
		}
	}
}

// MSCCL with its custom algorithm must beat its embedded NCCL 2.12 in the
// medium window (Fig 5d) while matching it outside.
func TestMSCCLBeatsLegacyNCCLMediumSizes(t *testing.T) {
	msccl := Config{System: "thetagpu", Nodes: 1, MinBytes: 4 << 10, MaxBytes: 64 << 10,
		Iterations: 2, Stack: world.StackPureCCL, Backend: core.MSCCL}
	mr, err := RunCollective(msccl, Allreduce)
	if err != nil {
		t.Fatal(err)
	}
	legacy := msccl
	legacy.Backend = core.LegacyNCCL
	lr, err := RunCollective(legacy, Allreduce)
	if err != nil {
		t.Fatal(err)
	}
	wins := 0
	for i := range mr {
		if mr[i].Latency < lr[i].Latency {
			wins++
		}
	}
	if wins < len(mr)-1 {
		t.Errorf("MSCCL won only %d/%d medium sizes vs NCCL 2.12", wins, len(mr))
	}
}

// HCCL multi-node collectives show step-curve degradations crossing 16 B
// and 64 B (Fig 6c: 7–12× jumps).
func TestHCCLStepCurves(t *testing.T) {
	cfg := Config{System: "voyager", Nodes: 4, MinBytes: 4, MaxBytes: 256,
		Iterations: 1, Stack: world.StackPureXCCL, Backend: core.HCCL,
		Table: nil}
	res, err := RunCollective(cfg, Allreduce)
	if err != nil {
		t.Fatal(err)
	}
	at8 := find(res, 8).Latency
	at32 := find(res, 32).Latency
	at128 := find(res, 128).Latency
	if float64(at32) < 1.5*float64(at8) {
		t.Errorf("no step at 16B boundary: 8B=%v 32B=%v", at8, at32)
	}
	if float64(at128) < 2.0*float64(at32) {
		t.Errorf("no step at 64B boundary: 32B=%v 128B=%v", at32, at128)
	}
}

func TestUnknownStackAndSystem(t *testing.T) {
	if _, err := RunCollective(Config{Stack: "nope"}, Allreduce); err == nil {
		t.Error("unknown stack accepted")
	}
	if _, err := RunCollective(Config{System: "summit"}, Allreduce); err == nil {
		t.Error("unknown system accepted")
	}
	if _, err := RunPt2Pt(Config{MinBytes: 4, MaxBytes: 4}, Pt2PtKind("nope")); err == nil {
		t.Error("unknown pt2pt bench accepted")
	}
}

// A size sweep that is empty (min above max) or never ends (min not
// positive) is an error from every runner, not a panic or a hang.
func TestRejectsBadSizeSweep(t *testing.T) {
	runners := map[string]func(Config) error{
		"RunCollective": func(cfg Config) error { _, err := RunCollective(cfg, Allreduce); return err },
		"RunPt2Pt":      func(cfg Config) error { _, err := RunPt2Pt(cfg, LatencyBench); return err },
		"Tune":          func(cfg Config) error { _, err := Tune(cfg, nil); return err },
	}
	for name, run := range runners {
		for _, sweep := range [][2]int64{{64, 4}, {-4, 0}, {-4, 64}} {
			if err := run(Config{MinBytes: sweep[0], MaxBytes: sweep[1]}); err == nil {
				t.Errorf("%s: sweep [%d, %d] accepted", name, sweep[0], sweep[1])
			}
		}
	}
}

// All five collectives complete and return monotone-in-size latency on
// every system preset (smoke coverage for Figs 5–6 machinery).
func TestAllCollectivesAllSystemsSmoke(t *testing.T) {
	for _, system := range []string{"thetagpu", "mri", "voyager"} {
		for _, op := range []Collective{Allreduce, Reduce, Bcast, Alltoall, Allgather} {
			cfg := Config{System: system, Nodes: 1, MinBytes: 4 << 10, MaxBytes: 32 << 10,
				Iterations: 1, Stack: world.StackHybrid}
			res, err := RunCollective(cfg, op)
			if err != nil {
				t.Fatalf("%s/%s: %v", system, op, err)
			}
			if len(res) == 0 || res[0].Latency <= 0 {
				t.Fatalf("%s/%s: empty results", system, op)
			}
			last := res[len(res)-1]
			if last.Latency < res[0].Latency/4 {
				t.Errorf("%s/%s: latency collapsed with size: %v -> %v", system, op, res[0].Latency, last.Latency)
			}
		}
	}
}

// The pure-CCL point-to-point runner reports the communicator's launches
// into Config.Metrics.
func TestPt2PtRunnersReportCCLLaunches(t *testing.T) {
	reg := metrics.NewRegistry()
	if _, err := RunPt2Pt(Config{System: "thetagpu", Nodes: 1, MinBytes: 4 << 10, MaxBytes: 4 << 10,
		Iterations: 1, Metrics: reg}, BandwidthBench); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "ccl_launches_total{") {
		t.Errorf("no ccl_launches_total series in RunPt2Pt's metrics:\n%s", out.String())
	}
}

// The offline tuner must discover a crossover consistent with Fig 1a: MPI
// below some band, CCL above.
func TestTunerFindsCrossover(t *testing.T) {
	table, err := Tune(Config{System: "thetagpu", Nodes: 1,
		MinBytes: 1 << 10, MaxBytes: 1 << 20, Iterations: 1}, []Collective{Allreduce})
	if err != nil {
		t.Fatal(err)
	}
	if table.Lookup(core.OpAllreduce, 1<<10) != core.PathMPI {
		t.Error("tuner should pick MPI at 1KB")
	}
	if table.Lookup(core.OpAllreduce, 1<<20) != core.PathCCL {
		t.Error("tuner should pick CCL at 1MB")
	}
	// The tuned table must be loadable by a hybrid runtime.
	cfg := Config{System: "thetagpu", Nodes: 1, MinBytes: 4 << 10, MaxBytes: 4 << 10,
		Iterations: 1, Stack: world.StackHybrid, Table: table}
	if _, err := RunCollective(cfg, Allreduce); err != nil {
		t.Fatal(err)
	}
}

func TestFullResultsMinMax(t *testing.T) {
	res, err := RunCollective(Config{System: "thetagpu", Nodes: 1, MinBytes: 4 << 10,
		MaxBytes: 4 << 10, Iterations: 2, Stack: world.StackHybrid}, Reduce)
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.MinLatency <= 0 || r.MaxLatency < r.MinLatency || r.Latency != r.MaxLatency {
		t.Fatalf("full stats inconsistent: %+v", r)
	}
	// Reduce is root-asymmetric, so min (leaf ranks) < max (root path).
	if r.MinLatency == r.MaxLatency {
		t.Fatalf("expected rank spread on reduce, got min==max==%v", r.MinLatency)
	}
}

func TestTuneSweepsHierarchical(t *testing.T) {
	table, err := Tune(Config{System: "thetagpu", Nodes: 2,
		MinBytes: 256 << 10, MaxBytes: 4 << 20, Iterations: 1}, []Collective{Allreduce})
	if err != nil {
		t.Fatal(err)
	}
	th, ok := table.Choice(core.OpAllreduce, 4<<20)
	if !ok || th.Path != core.PathCCL {
		t.Fatalf("tuner should pick CCL at 4MB on 2 nodes, got %+v (hit=%v)", th, ok)
	}
	if th.Algo != ccl.AlgoHierarchical {
		t.Fatalf("tuner should pick the hierarchical schedule at 4MB, got %+v", th)
	}
	if th.ChunkBytes <= 0 {
		t.Fatalf("hierarchical band must carry a chunk size, got %+v", th)
	}
	// The algorithm choice must survive a JSON round trip (v2 table format).
	js, err := table.JSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := core.ParseTable(js)
	if err != nil {
		t.Fatal(err)
	}
	th2, ok := loaded.Choice(core.OpAllreduce, 4<<20)
	if !ok || th2 != th {
		t.Fatalf("round-tripped band %+v != tuned band %+v", th2, th)
	}
	// Regression guard: the tuned table must not lose to the builtin default
	// on the shape it was tuned for.
	at4MB := func(tb *core.TuningTable) time.Duration {
		res, err := RunCollective(Config{System: "thetagpu", Nodes: 2,
			MinBytes: 4 << 20, MaxBytes: 4 << 20, Iterations: 2,
			Stack: world.StackHybrid, Table: tb}, Allreduce)
		if err != nil {
			t.Fatal(err)
		}
		return res[0].Latency
	}
	tuned, builtin := at4MB(loaded), at4MB(nil)
	if tuned >= builtin {
		t.Errorf("tuned table must beat builtin at 4MB: tuned=%v builtin=%v", tuned, builtin)
	}
}

func TestTuneNoAlgoSweep(t *testing.T) {
	table, err := Tune(Config{System: "thetagpu", Nodes: 2, NoAlgoSweep: true,
		MinBytes: 1 << 20, MaxBytes: 4 << 20, Iterations: 1}, []Collective{Allreduce})
	if err != nil {
		t.Fatal(err)
	}
	for _, band := range table.Rules[core.OpAllreduce] {
		if band.Algo != ccl.AlgoAuto || band.ChunkBytes != 0 {
			t.Fatalf("NoAlgoSweep table must stay path-only, got %+v", band)
		}
	}
}

// The new synthesized-collective benchmarks run on every stack, and the
// compiled path (Config.Compile) matches the group-loop latency curve's
// shape (monotone, no collapse).
func TestGatherScatterAllStacksSmoke(t *testing.T) {
	for _, stack := range []world.Stack{world.StackHybrid, world.StackPureXCCL, world.StackMPI, world.StackOpenMPI, world.StackUCC, world.StackPureCCL} {
		for _, op := range []Collective{Gather, Scatter} {
			cfg := Config{System: "thetagpu", Nodes: 1, MinBytes: 64 << 10, MaxBytes: 256 << 10,
				Iterations: 1, Stack: stack}
			res, err := RunCollective(cfg, op)
			if err != nil {
				t.Fatalf("%s/%s: %v", stack, op, err)
			}
			if len(res) == 0 || res[0].Latency <= 0 {
				t.Fatalf("%s/%s: empty results", stack, op)
			}
		}
	}
}

// Compiled dispatch through OMB: the phased alltoall must beat the group
// send-recv loop by at least 20% of virtual time at large sizes on a
// multi-node shape (the Fig 6 claim BENCH_pr10.json records).
func TestCompiledAlltoallBeatsLoopMultiNode(t *testing.T) {
	// 4 full ThetaGPU nodes: 8 flows per node share each NIC, so the flat
	// loop convoys (HOL) and the phased pairing schedule wins. 256 KB keeps
	// the event count test-sized.
	base := Config{System: "thetagpu", Nodes: 4,
		MinBytes: 256 << 10, MaxBytes: 256 << 10, Iterations: 2, Stack: world.StackPureXCCL}
	loop, err := RunCollective(base, Alltoall)
	if err != nil {
		t.Fatal(err)
	}
	comp := base
	comp.Compile = true
	compiled, err := RunCollective(comp, Alltoall)
	if err != nil {
		t.Fatal(err)
	}
	// Virtual time is host-independent, so the bound needs no slack.
	if win := 1 - float64(compiled[0].Latency)/float64(loop[0].Latency); win < 0.20 {
		t.Errorf("compiled alltoall %v wins %.1f%% over loop %v at 256KB over 4 nodes, want >= 20%%",
			compiled[0].Latency, win*100, loop[0].Latency)
	}
}

func TestTuneSweepsCompiledPlans(t *testing.T) {
	table, err := Tune(Config{System: "thetagpu", Nodes: 4,
		MinBytes: 256 << 10, MaxBytes: 256 << 10, Iterations: 1}, []Collective{Alltoall})
	if err != nil {
		t.Fatal(err)
	}
	th, ok := table.Choice(core.OpAlltoall, 256<<10)
	if !ok || th.Path != core.PathCCL {
		t.Fatalf("tuner should pick CCL alltoall at 256KB on 4 nodes, got %+v (hit=%v)", th, ok)
	}
	if th.Plan == "" {
		t.Fatalf("tuner should pick a compiled plan at 256KB on 4 nodes, got %+v", th)
	}
	// The plan key must survive a v3 JSON round trip.
	js, err := table.JSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := core.ParseTable(js)
	if err != nil {
		t.Fatal(err)
	}
	th2, _ := loaded.Choice(core.OpAlltoall, 256<<10)
	if th2.Plan != th.Plan {
		t.Fatalf("plan lost in round trip: %+v != %+v", th2, th)
	}
}

// Every key Tune sweeps must be a strategy the compiler offers for the op
// on that shape: ParseTable accepts it, and the communicator's candidate
// list (comp.Keys, the search space) contains it.
func TestPlanSweepKeysAreCompilerCandidates(t *testing.T) {
	for _, nodes := range []int{1, 2} {
		k := sim.NewKernel()
		sys, err := topology.Preset(k, "thetagpu", nodes)
		if err != nil {
			t.Fatal(err)
		}
		comms, err := core.NewBackendComms(core.NCCL, fabric.New(k, sys), sys.Devices())
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []Collective{Alltoall, Gather, Scatter} {
			keys := planSweep(op, nodes > 1)
			if len(keys) == 0 {
				t.Fatalf("%s on %d nodes: empty plan sweep", op, nodes)
			}
			cands := comms[0].PlanKeys(string(op))
			for _, key := range keys {
				if err := comp.ValidKey(string(op), key); err != nil {
					t.Errorf("%s on %d nodes: swept key %q: %v", op, nodes, key, err)
				}
				if !slices.Contains(cands, key) {
					t.Errorf("%s on %d nodes: swept key %q is not a compiler candidate %v", op, nodes, key, cands)
				}
			}
		}
	}
}
