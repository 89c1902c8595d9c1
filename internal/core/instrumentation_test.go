package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/fault"
	"mpixccl/internal/metrics"
	"mpixccl/internal/mpi"
	"mpixccl/internal/trace"
)

// The instrumentation golden pins everything the dispatch layer reports —
// Stats, the Prometheus text of the whole registry and every trace record
// from every rank — for one scenario per event kind. A change to how
// events are emitted must leave it byte-identical; a change to what is
// emitted regenerates it with:
//
//	go test ./internal/core -run TestInstrumentationGolden -update-golden
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/instrumentation.golden from the current runtime")

const instrumentationGolden = "testdata/instrumentation.golden"

// instrumentationScenario builds a runtime with opts (which carry the
// scenario's registry and recorder), runs it, and returns it.
type instrumentationScenario struct {
	name string
	run  func(t *testing.T, opts Options) *Runtime
}

// runOrFatal runs fn on every rank of rt.
func runOrFatal(t *testing.T, rt *Runtime, fn func(x *Comm)) *Runtime {
	t.Helper()
	if err := rt.Run(fn); err != nil {
		t.Fatal(err)
	}
	return rt
}

// sleepUntil parks the rank until virtual time at (no-op when past it).
func sleepUntil(x *Comm, at time.Duration) { x.Proc().Sleep(at - x.Proc().Now()) }

var instrumentationScenarios = []instrumentationScenario{
	{"datatype-fallback", func(t *testing.T, o Options) *Runtime {
		// HCCL implements float only: DoubleComplex rides the MPI path.
		o.Backend, o.Mode = Auto, PureCCL
		rt := newRuntime(t, "voyager", 8, o)
		return runOrFatal(t, rt, func(x *Comm) {
			send := x.Device().MustMalloc(32)
			recv := x.Device().MustMalloc(32)
			x.Allreduce(send, recv, 2, mpi.DoubleComplex, mpi.OpSum)
		})
	}},
	{"host-buffer-fallback", func(t *testing.T, o Options) *Runtime {
		o.Backend, o.Mode = Auto, PureCCL
		rt := newRuntime(t, "thetagpu", 2, o)
		return runOrFatal(t, rt, func(x *Comm) {
			host := x.MPI().Job().Fabric().System().Nodes[x.Device().Node].Host
			send := host.MustMalloc(1 << 20)
			recv := host.MustMalloc(1 << 20)
			x.Allreduce(send, recv, 1<<18, mpi.Float32, mpi.OpSum)
		})
	}},
	{"device-fallback", func(t *testing.T, o Options) *Runtime {
		// HCCL serves Habana HPUs only: an NVIDIA job forced onto it falls
		// back per call.
		o.Backend, o.Mode = HCCL, PureCCL
		rt := newRuntime(t, "thetagpu", 2, o)
		return runOrFatal(t, rt, func(x *Comm) { allreduceOnce(t, x, 256) })
	}},
	{"hybrid-hierarchical", func(t *testing.T, o Options) *Runtime {
		// Tuning hits on both sides of the crossover; the CCL band forces
		// the hierarchical family (an algorithm selection).
		o.Backend, o.Mode = Auto, Hybrid
		o.Table = HierarchicalTableFor("thetagpu", NCCL, true, 0)
		rt := newRuntime(t, "thetagpu", 16, o)
		return runOrFatal(t, rt, func(x *Comm) {
			allreduceOnce(t, x, 256)
			allreduceOnce(t, x, 1<<18)
			x.Barrier()
			buf := x.Device().MustMalloc(1 << 20)
			defer buf.Free()
			x.Bcast(buf, 1<<18, mpi.Float32, 0)
		})
	}},
	{"retry-breaker-persistent", func(t *testing.T, o Options) *Runtime {
		// A transient error retries; a persistent burst opens the breaker,
		// a skipped wave and a persistent Init ride MPI under it, a failed
		// half-open probe re-opens it, a clean one closes it, and a
		// persistent wave whose Start fails falls back to MPI.
		o.Backend, o.Mode = Auto, PureCCL
		o.Resilience = &Resilience{MaxRetries: 2, BreakerThreshold: 2}
		rt := newRuntime(t, "thetagpu", 2, o)
		const burst, late = 100 * time.Microsecond, 10 * time.Millisecond
		rt.Job().Fabric().SetFaults(fault.NewPlan(1).
			AddRule(fault.Rule{Name: "transient", Op: "allreduce", Result: ccl.ErrRemote,
				Count: 1, Until: burst}).
			AddRule(fault.Rule{Name: "broken", Op: "allreduce", Result: ccl.ErrInternal,
				Count: 4, From: burst, Until: late}).
			AddRule(fault.Rule{Name: "wave", Op: "allreduce", Result: ccl.ErrInternal,
				Count: 2, From: late}))
		return runOrFatal(t, rt, func(x *Comm) {
			allreduceOnce(t, x, 256) // transient: one retry, then CCL
			sleepUntil(x, burst)
			allreduceOnce(t, x, 256) // both ranks fail: the breaker opens
			allreduceOnce(t, x, 256) // open: skipped
			buf := x.Device().MustMalloc(1 << 10)
			defer buf.Free()
			po, err := x.AllReduceInit(buf, buf, 256, mpi.Float32, mpi.OpSum)
			if err != nil {
				t.Fatal(err)
			}
			_ = po.Do() // demoted at Init: MPI
			_ = po.Free()
			x.Proc().Sleep(2 * time.Millisecond)
			allreduceOnce(t, x, 256) // half-open probe fails: re-opens
			x.Proc().Sleep(2 * time.Millisecond)
			allreduceOnce(t, x, 256) // probe succeeds: closes
			sleepUntil(x, late)
			po, err = x.AllReduceInit(buf, buf, 256, mpi.Float32, mpi.OpSum)
			if err != nil {
				t.Fatal(err)
			}
			_ = po.Do() // Start fails: the wave falls back to MPI
			_ = po.Free()
		})
	}},
	{"persistent-comminit-error", func(t *testing.T, o Options) *Runtime {
		o.Backend, o.Mode = Auto, PureCCL
		o.Resilience = &Resilience{BreakerThreshold: 100}
		rt := newRuntime(t, "thetagpu", 2, o)
		rt.Job().Fabric().SetFaults(fault.NewPlan(3).AddRule(fault.Rule{
			Name: "bad-init", Point: fault.CommInit, Result: ccl.ErrInternal, Count: 1,
		}))
		return runOrFatal(t, rt, func(x *Comm) {
			buf := x.Device().MustMalloc(1 << 10)
			defer buf.Free()
			po, err := x.AllReduceInit(buf, buf, 256, mpi.Float32, mpi.OpSum)
			if err != nil {
				t.Fatal(err)
			}
			_ = po.Do()
			_ = po.Free()
		})
	}},
	{"crash-revoke-shrink-grow", func(t *testing.T, o Options) *Runtime {
		// Ranks 0-2 active, 3 a spare; rank 1 crashes on its second call.
		o.Backend, o.Mode, o.Resilience = Auto, PureCCL, watchdogPolicy()
		rt := newRuntime(t, "thetagpu", 4, o)
		rt.Job().Fabric().SetFaults(fault.NewPlan(1).AddRule(fault.Rule{
			Name: "crash", Crash: true, Ranks: []int{1}, Op: "allreduce", After: 1,
		}))
		return runOrFatal(t, rt, func(x *Comm) {
			if x.Rank() == 3 {
				nx, adopted := x.WaitAsSpare(func() { x.Proc().Sleep(10 * time.Microsecond) })
				if !adopted {
					t.Error("spare not adopted")
					return
				}
				allreduceOnce(t, nx, 256)
				return
			}
			x = rt.Wrap(x.MPI().Subset([]int{0, 1, 2}))
			buf := x.Device().MustMalloc(1 << 10)
			defer buf.Free()
			x.Allreduce(buf, buf, 256, mpi.Float32, mpi.OpSum)
			x.Allreduce(buf, buf, 256, mpi.Float32, mpi.OpSum) // rank 1 dies here
			if x.Dead() {
				return
			}
			x.Revoke()
			nx, err := x.Shrink()
			if err != nil {
				t.Fatal(err)
			}
			gx, _, err := nx.Grow(1)
			if err != nil {
				t.Fatal(err)
			}
			allreduceOnce(t, gx, 256)
		})
	}},
	{"partition-fence-rejoin", func(t *testing.T, o Options) *Runtime {
		// Node 1 (ranks 8-11) is cut off: the majority shrinks, the
		// minority fences, and after the heal it rejoins through Grow.
		o.Backend, o.Mode, o.Resilience = Auto, PureCCL, watchdogPolicy()
		rt := newRuntime(t, "thetagpu", 12, o)
		cut, heal := 50*time.Microsecond, 400*time.Microsecond
		rt.Job().Fabric().SetFaults(fault.NewPlan(1).AddPartitionRule(fault.PartitionRule{
			Name: "cut", Nodes: []int{1}, From: cut, Until: heal,
		}))
		return runOrFatal(t, rt, func(x *Comm) {
			buf := x.Device().MustMalloc(256)
			defer buf.Free()
			sleepUntil(x, cut)
			x.Allreduce(buf, buf, 64, mpi.Float32, mpi.OpSum)
			nx, err := x.Shrink()
			if err != nil {
				gx, ok := x.Rejoin(func() { x.Proc().Sleep(5 * time.Microsecond) })
				if !ok {
					t.Error("rejoin not adopted")
					return
				}
				x = gx
			} else {
				for {
					gx, _, gerr := nx.Grow(12 - nx.Size())
					if gerr == nil {
						x = gx
						break
					}
					x.Proc().Sleep(50 * time.Microsecond)
				}
			}
			allreduceOnce(t, x, 64)
		})
	}},
	{"heartbeat-confirmed", func(t *testing.T, o Options) *Runtime {
		pol := heartbeatPolicy()
		o.Backend, o.Mode, o.Resilience = Auto, PureCCL, pol
		rt := newRuntime(t, "thetagpu", 4, o)
		const crashAt = time.Millisecond
		rt.Job().Fabric().SetFaults(fault.NewPlan(1).AddRule(fault.Rule{
			Name: "die", Crash: true, Ranks: []int{2}, From: crashAt,
		}))
		return runOrFatal(t, rt, func(x *Comm) {
			if x.Rank() == 2 {
				x.Proc().Sleep(crashAt)
				return
			}
			x.Proc().Sleep(crashAt + pol.WatchdogTimeout)
			buf := x.Device().MustMalloc(1 << 10)
			defer buf.Free()
			x.Allreduce(buf, buf, 256, mpi.Float32, mpi.OpSum)
		})
	}},
	{"heartbeat-retracted", func(t *testing.T, o Options) *Runtime {
		pol := DefaultResilience()
		pol.WatchdogTimeout = 2 * time.Millisecond
		pol.HeartbeatInterval = 50 * time.Microsecond
		o.Backend, o.Mode, o.Resilience = Auto, PureCCL, pol
		rt := newRuntime(t, "thetagpu", 2, o)
		rt.Job().Fabric().SetFaults(fault.NewPlan(1).AddLinkRule(fault.LinkRule{
			Name: "brownout", Link: "intra",
			From: time.Millisecond, Until: 2 * time.Millisecond, AlphaScale: 200,
		}))
		return runOrFatal(t, rt, func(x *Comm) {
			x.Proc().Sleep(3 * time.Millisecond)
			allreduceOnce(t, x, 256)
		})
	}},
	{"heartbeat-partitioned", func(t *testing.T, o Options) *Runtime {
		pol := DefaultResilience()
		pol.WatchdogTimeout = 200 * time.Microsecond
		pol.HeartbeatInterval = 20 * time.Microsecond
		o.Backend, o.Mode, o.Resilience = Auto, PureCCL, pol
		rt := newRuntime(t, "thetagpu", 12, o)
		cut, heal := 60*time.Microsecond, 300*time.Microsecond
		rt.Job().Fabric().SetFaults(fault.NewPlan(1).AddPartitionRule(fault.PartitionRule{
			Name: "cut", Nodes: []int{1}, From: cut, Until: heal,
		}))
		return runOrFatal(t, rt, func(x *Comm) {
			x.Proc().Sleep(heal + 100*time.Microsecond)
			allreduceOnce(t, x, 16)
		})
	}},
}

// TestInstrumentationGolden runs every scenario with a registry and a
// recorder wired and compares Stats, the Prometheus text and every trace
// record against the committed golden.
func TestInstrumentationGolden(t *testing.T) {
	var got bytes.Buffer
	for _, sc := range instrumentationScenarios {
		reg, rec := metrics.NewRegistry(), trace.New()
		rt := sc.run(t, Options{Metrics: reg, Trace: rec})
		fmt.Fprintf(&got, "=== %s\nstats %+v\n", sc.name, rt.Stats())
		if err := reg.WritePrometheus(&got); err != nil {
			t.Fatal(err)
		}
		for _, r := range rec.Records() {
			fmt.Fprintf(&got, "record %+v\n", r)
		}
	}
	if *updateGolden {
		if err := os.WriteFile(instrumentationGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(instrumentationGolden)
	if err != nil {
		t.Fatalf("golden missing (run with -update-golden to create): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("instrumentation differs from %s at line %d:\n got: %s\nwant: %s",
				instrumentationGolden, i+1, g, w)
		}
	}
}

// A trace's per-path summary adds up to Stats: every operation the
// runtime counts, Barrier included, leaves exactly one record.
func TestTraceSummaryMatchesStats(t *testing.T) {
	rec := trace.New()
	rt := newRuntime(t, "thetagpu", 8, Options{Backend: Auto, Mode: Hybrid, Trace: rec})
	runOrFatal(t, rt, func(x *Comm) {
		allreduceOnce(t, x, 256)   // 1 KiB: MPI
		x.Barrier()                // always MPI
		allreduceOnce(t, x, 1<<18) // 1 MiB: CCL
		x.Barrier()
	})
	perPath := map[string]int{}
	for _, r := range rec.Records() {
		if r.Event == "" {
			perPath[r.Path]++
		}
	}
	st := rt.Stats()
	if perPath["ccl"] != st.CCLOps || perPath["mpi"] != st.MPIOps {
		t.Errorf("trace counts ccl=%d mpi=%d, Stats CCLOps=%d MPIOps=%d",
			perPath["ccl"], perPath["mpi"], st.CCLOps, st.MPIOps)
	}
	if st.CCLOps != 8 || st.MPIOps != 24 {
		t.Errorf("CCLOps, MPIOps = %d, %d; want 8, 24", st.CCLOps, st.MPIOps)
	}
}
