package experiments

import (
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/core"
	"mpixccl/internal/fabric"
	"mpixccl/internal/fault"
	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// stripWall zeroes the fields that legitimately differ between a serial and
// a sharded run of the same model — host wall time and the shard count
// itself — so everything else can compare exactly.
func stripWall(r ScaleResult) ScaleResult {
	r.Wall = 0
	r.Shards = 0
	return r
}

func TestScaleDeterministicAcrossShards(t *testing.T) {
	base, err := RunScale(ScaleConfig{Ranks: 128, Bytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if !base.OK || base.VirtTime == 0 {
		t.Fatalf("serial run: %+v", base)
	}
	for _, shards := range []int{2, 4, 8} {
		r, err := RunScale(ScaleConfig{Ranks: 128, Bytes: 256 << 10, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := stripWall(r), stripWall(base); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d: %+v\nserial: %+v", shards, got, want)
		}
	}
}

func TestScaleAcrossSystems(t *testing.T) {
	// Every preset (including non-power-of-two devices per node) must pass
	// the digest check at multiple shard counts.
	for _, sys := range []string{"thetagpu", "mri", "voyager", "aurora"} {
		dpn := map[string]int{"thetagpu": 8, "mri": 2, "voyager": 8, "aurora": 6}[sys]
		ranks := 16 * dpn
		base, err := RunScale(ScaleConfig{System: sys, Ranks: ranks, Bytes: 64 << 10})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if !base.OK {
			t.Fatalf("%s: digest check failed: %+v", sys, base)
		}
		sharded, err := RunScale(ScaleConfig{System: sys, Ranks: ranks, Bytes: 64 << 10, Shards: 4})
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if got, want := stripWall(sharded), stripWall(base); !reflect.DeepEqual(got, want) {
			t.Errorf("%s shards=4: %+v\nserial: %+v", sys, got, want)
		}
	}
}

// TestScaleFaultDeterminism is the cross-shard fault-injection contract:
// crash, brownout, and corrupt rules firing on cross-shard links must
// produce identical verdicts and counters at 1 and 4 shards. Rules are pure
// time-window rules (no probabilities, no call budgets on cross-links), the
// class the parallel engine guarantees order-independence for.
func TestScaleFaultDeterminism(t *testing.T) {
	const us = time.Microsecond
	cases := []struct {
		name   string
		faults func(shard int) *fault.Plan
		check  func(t *testing.T, r ScaleResult)
	}{
		{
			name: "crash",
			faults: func(shard int) *fault.Plan {
				return fault.NewPlan(42).AddRule(fault.Rule{
					Name: "leader5-dies", Ranks: []int{5}, From: 50 * us, Crash: true,
				})
			},
			check: func(t *testing.T, r ScaleResult) {
				if len(r.Crashed) != 1 || r.Crashed[0] != 5 {
					t.Errorf("crashed = %v, want [5]", r.Crashed)
				}
				if r.Timeouts == 0 || r.OK {
					t.Errorf("want detection timeouts and a failed check, got %+v", r)
				}
			},
		},
		{
			name: "brownout",
			faults: func(shard int) *fault.Plan {
				return fault.NewPlan(42).AddLinkRule(fault.LinkRule{
					Name: "inter-brownout", Link: "inter",
					From: 30 * us, Until: 70 * us,
					BWScale: 0.25, AlphaScale: 3,
				})
			},
			check: func(t *testing.T, r ScaleResult) {
				if r.Degraded == 0 {
					t.Error("brownout window never hit a ring send")
				}
				if !r.OK {
					t.Errorf("brownout must not corrupt results: %+v", r)
				}
			},
		},
		{
			name: "corrupt",
			faults: func(shard int) *fault.Plan {
				return fault.NewPlan(42).AddCorruptRule(fault.CorruptRule{
					Name: "node7-flaky-nic", Link: "inter", Nodes: []int{7},
					From: 40 * us, Until: 55 * us,
				})
			},
			check: func(t *testing.T, r ScaleResult) {
				if r.CorruptionsDetected == 0 || r.Retransmits == 0 {
					t.Errorf("corrupt window never fired: %+v", r)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ScaleConfig{Ranks: 128, Bytes: 256 << 10, Faults: tc.faults}
			serial, err := RunScale(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Shards = 4
			sharded, err := RunScale(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := stripWall(sharded), stripWall(serial); !reflect.DeepEqual(got, want) {
				t.Errorf("shards=4: %+v\nserial: %+v", got, want)
			}
			tc.check(t, serial)
		})
	}
}

// TestScalePartitionDeterminism extends the cross-shard fault contract to
// partition rules: a node-scoped cut on the leader ring must produce the
// same severed counts, verdicts, and virtual clock at 1 and 4 shards. A
// healing cut delays the ring but completes OK; a permanent cut breaks it.
func TestScalePartitionDeterminism(t *testing.T) {
	const us = time.Microsecond
	cases := []struct {
		name   string
		faults func(shard int) *fault.Plan
		check  func(t *testing.T, r ScaleResult)
	}{
		{
			name: "heal",
			faults: func(shard int) *fault.Plan {
				return fault.NewPlan(42).AddPartitionRule(fault.PartitionRule{
					Name: "node7-cut-heals", Nodes: []int{7},
					From: 40 * us, Until: 120 * us,
				})
			},
			check: func(t *testing.T, r ScaleResult) {
				if r.Severed == 0 {
					t.Errorf("cut window never hit a ring send: %+v", r)
				}
				if !r.OK || r.Timeouts != 0 {
					t.Errorf("healed cut must deliver late, not fail: %+v", r)
				}
			},
		},
		{
			name: "permanent",
			faults: func(shard int) *fault.Plan {
				return fault.NewPlan(42).AddPartitionRule(fault.PartitionRule{
					Name: "node7-cut", Nodes: []int{7}, From: 40 * us,
				})
			},
			check: func(t *testing.T, r ScaleResult) {
				if r.Severed == 0 || r.Timeouts == 0 || r.OK {
					t.Errorf("permanent cut must break the ring: %+v", r)
				}
				if len(r.Crashed) != 0 {
					t.Errorf("a severed leader is alive, got crashed %v", r.Crashed)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ScaleConfig{Ranks: 128, Bytes: 256 << 10, Faults: tc.faults}
			serial, err := RunScale(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Shards = 4
			sharded, err := RunScale(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := stripWall(sharded), stripWall(serial); !reflect.DeepEqual(got, want) {
				t.Errorf("shards=4: %+v\nserial: %+v", got, want)
			}
			tc.check(t, serial)
		})
	}
}

// ---------------------------------------------------------------------------
// Compiled-collective determinism.
//
// The tests above pin the SYNTHETIC leader-ring model; the ones below pin
// the REAL dispatch: a compiler-planned Alltoall (core.Options.Compile)
// driven through the full core runtime — fault pre-checks, watchdog
// verdicts, quorum membership — run twice on the same schedule. Every
// field in a verdict is virtual-time-deterministic (payload CRCs, failure
// strings, membership stats, per-rank finish clocks), so reflect.DeepEqual
// must hold exactly, extending the stripWall pattern to the compiled
// executor.

// rankFate is one rank's distilled outcome.
type rankFate struct {
	Waves   int           // full-width compiled waves that completed
	CRC     uint32        // payload digest of the last good full-width wave
	Failure string        // the failure verdict the rank observed, verbatim
	PostCRC uint32        // payload digest after recovery (shrink or regrow)
	End     time.Duration // the rank's virtual finish time
}

// compiledVerdict is everything a run must reproduce on a repeat.
type compiledVerdict struct {
	Ranks []rankFate
	Stats core.Stats
}

// compiledWorld builds a two-node thetagpu world with the collective
// compiler on and the fault plan armed.
func compiledWorld(t *testing.T, nranks int, plan *fault.Plan) *core.Runtime {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	sys, err := topology.Preset(k, "thetagpu", 2)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(k, sys)
	fab.SetFaults(plan)
	pol := core.DefaultResilience()
	pol.WatchdogTimeout = 200 * time.Microsecond
	rt, err := core.NewRuntime(mpi.NewJobOnSystem(fab, mpi.MVAPICHProfile(), sys, nranks),
		core.Options{Backend: core.Auto, Mode: core.PureCCL, Compile: true, Resilience: pol})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// runCompiledAlltoallCrash drives compiled Alltoall waves into a fail-stop
// crash of rank 5, lets the watchdog convert the stuck wave into ErrRankDead
// verdicts, shrinks, and runs one more compiled wave on the 15-rank group.
func runCompiledAlltoallCrash(t *testing.T) compiledVerdict {
	t.Helper()
	const nranks, count = 16, 1024
	blk := int64(count) * 4
	plan := fault.NewPlan(42).AddRule(fault.Rule{
		Name: "rank5-dies", Crash: true, Ranks: []int{5}, From: 60 * time.Microsecond,
	})
	rt := compiledWorld(t, nranks, plan)
	v := compiledVerdict{Ranks: make([]rankFate, nranks)}
	if err := rt.Run(func(x *core.Comm) {
		p := x.MPI().Proc()
		rv := &v.Ranks[x.Rank()]
		send := x.Device().MustMalloc(blk * nranks)
		recv := x.Device().MustMalloc(blk * nranks)
		defer send.Free()
		defer recv.Free()
		for wave := 0; wave < 4 && x.Failure() == nil && !x.Dead(); wave++ {
			for i := 0; i < count*nranks; i++ {
				send.SetFloat32(i, float32(x.Rank()+1)*100+float32(wave)+float32(i%17))
			}
			x.Alltoall(send, count, mpi.Float32, recv)
			if x.Failure() == nil {
				rv.Waves++
				rv.CRC = crc32.ChecksumIEEE(recv.Bytes())
			}
			p.Sleep(20 * time.Microsecond)
		}
		f := x.Failure()
		if f == nil {
			t.Errorf("rank %d: crash never surfaced", x.Rank())
			return
		}
		rv.Failure = f.Error()
		if x.Dead() {
			rv.End = p.Now()
			return // the crashed rank exits; survivors recover
		}
		if !errors.Is(f, ccl.ErrRankDead) {
			t.Errorf("rank %d: failure = %v, want ErrRankDead", x.Rank(), f)
		}
		x.Revoke()
		nx, err := x.Shrink()
		if err != nil {
			t.Errorf("rank %d shrink: %v", x.Rank(), err)
			return
		}
		// One compiled wave on the shrunk (15-rank, non-power-of-two) group.
		n := int64(nx.Size())
		for i := 0; i < count*int(n); i++ {
			send.SetFloat32(i, float32(nx.Rank()+1)+float32(i%13))
		}
		nx.Alltoall(send.Slice(0, blk*n), count, mpi.Float32, recv.Slice(0, blk*n))
		if err := nx.Failure(); err != nil {
			t.Errorf("rank %d post-shrink: %v", nx.Rank(), err)
			return
		}
		rv.PostCRC = crc32.ChecksumIEEE(recv.Bytes()[:blk*n])
		rv.End = p.Now()
	}); err != nil {
		t.Fatal(err)
	}
	v.Stats = rt.Stats()
	return v
}

// runCompiledAlltoallPartition drives a compiled Alltoall through the full
// heal-and-rejoin arc: a pre-cut wave, a fast-failing wave inside a healing
// node cut, quorum shrink + fence + rejoin, and a post-heal full-width wave.
func runCompiledAlltoallPartition(t *testing.T) compiledVerdict {
	t.Helper()
	const nranks, count = 12, 256
	blk := int64(count) * 4
	cut, heal := 50*time.Microsecond, 400*time.Microsecond
	plan := fault.NewPlan(7).AddPartitionRule(fault.PartitionRule{
		Name: "node1-cut-heals", Nodes: []int{1}, From: cut, Until: heal,
	})
	rt := compiledWorld(t, nranks, plan)
	v := compiledVerdict{Ranks: make([]rankFate, nranks)}
	if err := rt.Run(func(x *core.Comm) {
		p := x.MPI().Proc()
		wr := x.Rank() // world rank: stable across shrink/grow
		rv := &v.Ranks[wr]
		send := x.Device().MustMalloc(blk * nranks)
		recv := x.Device().MustMalloc(blk * nranks)
		defer send.Free()
		defer recv.Free()
		fill := func(rank, salt int) {
			for i := 0; i < count*nranks; i++ {
				send.SetFloat32(i, float32(rank+1)*10+float32(salt)+float32(i%29))
			}
		}

		// Before the cut: a full-width compiled wave completes everywhere.
		fill(wr, 0)
		x.Alltoall(send, count, mpi.Float32, recv)
		if err := x.Failure(); err != nil {
			t.Errorf("rank %d pre-cut: %v", wr, err)
			return
		}
		rv.Waves++
		rv.CRC = crc32.ChecksumIEEE(recv.Bytes())

		// Inside the window: the dispatch fast-fails instead of blocking.
		if now := p.Now(); now < cut+10*time.Microsecond {
			p.Sleep(cut + 10*time.Microsecond - now)
		}
		x.Alltoall(send, count, mpi.Float32, recv)
		f := x.Failure()
		if f == nil {
			t.Errorf("rank %d: cut wave succeeded", wr)
			return
		}
		if !errors.Is(f, ccl.ErrUnreachable) && !errors.Is(f, core.ErrCommRevoked) {
			t.Errorf("rank %d cut failure = %v, want ErrUnreachable or ErrCommRevoked", wr, f)
		}
		rv.Failure = f.Error()

		// Heal arc: the majority quorum-shrinks to 8 and polls Grow; the
		// minority loses the vote, fences, and rejoins once the cut heals.
		nx, serr := x.Shrink()
		if errors.Is(serr, core.ErrNoQuorum) {
			gx, ok := x.Rejoin(func() { p.Sleep(5 * time.Microsecond) })
			if !ok {
				t.Errorf("minority rank %d: rejoin not adopted", wr)
				return
			}
			x = gx
		} else if serr != nil {
			t.Errorf("rank %d shrink: %v", wr, serr)
			return
		} else {
			for {
				gx, _, gerr := nx.Grow(nranks - nx.Size())
				if gerr == nil {
					x = gx
					break
				}
				if !errors.Is(gerr, core.ErrNoSpares) {
					t.Errorf("rank %d grow: %v", wr, gerr)
					return
				}
				p.Sleep(50 * time.Microsecond)
			}
		}

		// Full width restored: the compiled wave completes on the regrown
		// communicator.
		if x.Size() != nranks {
			t.Errorf("rank %d: regrown size = %d, want %d", wr, x.Size(), nranks)
		}
		fill(x.Rank(), 1)
		x.Alltoall(send, count, mpi.Float32, recv)
		if err := x.Failure(); err != nil {
			t.Errorf("rank %d post-heal: %v", wr, err)
			return
		}
		rv.PostCRC = crc32.ChecksumIEEE(recv.Bytes())
		rv.End = p.Now()
	}); err != nil {
		t.Fatal(err)
	}
	v.Stats = rt.Stats()
	return v
}

// TestCompiledAlltoallShardDeterminism is the determinism contract for the
// collective compiler under faults: the same crash and partition schedules
// must yield byte-identical verdicts on every run.
func TestCompiledAlltoallShardDeterminism(t *testing.T) {
	t.Run("crash", func(t *testing.T) {
		first := runCompiledAlltoallCrash(t)
		again := runCompiledAlltoallCrash(t)
		if !reflect.DeepEqual(again, first) {
			t.Errorf("repeat verdicts diverged:\n%+v\nfirst:\n%+v", again, first)
		}
		if st := first.Stats; st.RankFailures != 1 || st.Shrinks != 1 {
			t.Errorf("want one crash and one shrink, got %+v", st)
		}
		if st := first.Stats; st.CCLOps == 0 || st.MPIOps != 0 {
			t.Errorf("pure-CCL compiled run took the wrong path: %+v", st)
		}
	})
	t.Run("partition-heal", func(t *testing.T) {
		first := runCompiledAlltoallPartition(t)
		again := runCompiledAlltoallPartition(t)
		if !reflect.DeepEqual(again, first) {
			t.Errorf("repeat verdicts diverged:\n%+v\nfirst:\n%+v", again, first)
		}
		if st := first.Stats; st.Partitions != 1 || st.FencedRanks != 4 ||
			st.Shrinks != 1 || st.Grows != 1 || st.Epoch != 2 {
			t.Errorf("want one healed cut (shrink+grow, 4 fenced), got %+v", st)
		}
	})
}

func TestScaleRejectsUnevenRanks(t *testing.T) {
	if _, err := RunScale(ScaleConfig{Ranks: 100}); err == nil {
		t.Fatal("100 ranks on 8-device nodes should be rejected")
	}
}

func TestFormatScaleTable(t *testing.T) {
	r, err := RunScale(ScaleConfig{Ranks: 64, Bytes: 64 << 10, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatScaleTable([]ScaleResult{r})
	for _, want := range []string{"ranks", "shards", "64KiB", "ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestScaleResultPinned holds the scale model to exact results: every
// ScaleResult field but Wall and Shards, for the benchmark's shape, the
// 128-rank fault-free shape and every fault and partition case above, at
// 1, 2 and 4 shards. The cross-shard tests compare runs with each other;
// this one catches a change that moves all shard counts alike.
func TestScaleResultPinned(t *testing.T) {
	const us = time.Microsecond
	small := func(faults func(int) *fault.Plan) ScaleConfig {
		return ScaleConfig{Ranks: 128, Bytes: 256 << 10, Faults: faults}
	}
	ok := func(virt time.Duration) ScaleResult {
		return ScaleResult{System: "thetagpu", Ranks: 128, Nodes: 16, Bytes: 256 << 10, VirtTime: virt, OK: true}
	}
	bad := func(virt time.Duration, badRanks int) ScaleResult {
		r := ok(virt)
		r.OK, r.BadRanks = false, badRanks
		return r
	}
	crash, brownout, corrupt := bad(2111980, 128), ok(156380), bad(139180, 64)
	crash.Crashed, crash.Timeouts = []int{5}, 15
	brownout.Degraded = 64
	corrupt.CorruptionsDetected, corrupt.Retransmits, corrupt.Unrecovered = 10, 8, 2
	heal, permanent := ok(202536), bad(2101780, 128)
	heal.Severed = 16
	permanent.Severed, permanent.Timeouts = 16, 16
	cases := []struct {
		name string
		cfg  ScaleConfig
		want ScaleResult
	}{
		{"bench", ScaleConfig{Ranks: 4096, Seed: 1}, ScaleResult{
			System: "thetagpu", Ranks: 4096, Nodes: 512, Bytes: 4 << 20, VirtTime: 3230306, OK: true}},
		{"fault-free", small(nil), ok(125580)},
		{"crash", small(func(int) *fault.Plan {
			return fault.NewPlan(42).AddRule(fault.Rule{
				Name: "leader5-dies", Ranks: []int{5}, From: 50 * us, Crash: true,
			})
		}), crash},
		{"brownout", small(func(int) *fault.Plan {
			return fault.NewPlan(42).AddLinkRule(fault.LinkRule{
				Name: "inter-brownout", Link: "inter",
				From: 30 * us, Until: 70 * us,
				BWScale: 0.25, AlphaScale: 3,
			})
		}), brownout},
		{"corrupt", small(func(int) *fault.Plan {
			return fault.NewPlan(42).AddCorruptRule(fault.CorruptRule{
				Name: "node7-flaky-nic", Link: "inter", Nodes: []int{7},
				From: 40 * us, Until: 55 * us,
			})
		}), corrupt},
		{"heal", small(func(int) *fault.Plan {
			return fault.NewPlan(42).AddPartitionRule(fault.PartitionRule{
				Name: "node7-cut-heals", Nodes: []int{7},
				From: 40 * us, Until: 120 * us,
			})
		}), heal},
		{"permanent", small(func(int) *fault.Plan {
			return fault.NewPlan(42).AddPartitionRule(fault.PartitionRule{
				Name: "node7-cut", Nodes: []int{7}, From: 40 * us,
			})
		}), permanent},
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Shards = shards
				r, err := RunScale(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got := stripWall(r); !reflect.DeepEqual(got, tc.want) {
					t.Errorf("got  %+v\nwant %+v", got, tc.want)
				}
			})
		}
	}
}

// BenchmarkRunScale times whole calls of the benchmark's shape, 4096
// ranks, in raw host ns/op with allocations: on 2 shards as the benchmark
// runs it, and on 1 for what the second thread buys.
func BenchmarkRunScale(b *testing.B) {
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := RunScale(ScaleConfig{Ranks: 4096, Shards: shards})
				if err != nil {
					b.Fatal(err)
				}
				if !r.OK {
					b.Fatalf("digest check failed: %+v", r)
				}
			}
		})
	}
}

// TestScaleRankResumes pins how often the scale model resumes its ranks'
// processes: each drives its rank's machine (sim.Proc.Drive), so it resumes
// when it starts and when the machine is done, and never at a sleep or a
// receive. It holds for the benchmark's shape and for a leader crash,
// whose watchdog timeouts end the other leaders' rings, at 1 and 2 shards.
// Every shard kernel's resume hook counts into the shard's own counter.
func TestScaleRankResumes(t *testing.T) {
	crash := func(int) *fault.Plan {
		return fault.NewPlan(42).AddRule(fault.Rule{
			Name: "leader5-dies", Ranks: []int{5}, From: 50 * time.Microsecond, Crash: true,
		})
	}
	cases := []struct {
		name string
		cfg  ScaleConfig
	}{
		{"fault-free", ScaleConfig{Ranks: 4096}},
		{"crash", ScaleConfig{Ranks: 128, Bytes: 256 << 10, Faults: crash}},
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(t *testing.T) {
				cfg := tc.cfg
				cfg.Shards = shards
				w, err := newScaleWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer w.eng.Close()
				resumes := make([]int, shards)
				for i := range resumes {
					w.eng.Kernel(i).OnResume(func(*sim.Proc) { resumes[i]++ })
				}
				if _, err := w.run(); err != nil {
					t.Fatal(err)
				}
				total := 0
				for _, n := range resumes {
					total += n
				}
				if total > 2*cfg.Ranks {
					t.Errorf("%d resumes for %d ranks, want at most %d", total, cfg.Ranks, 2*cfg.Ranks)
				}
			})
		}
	}
}
