package core

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"mpixccl/internal/ccl"
	"mpixccl/internal/mpi"
)

// Persistent-op equivalence: a handle's Do() must be bytewise identical
// to the one-shot Allreduce for the same payload, across datatypes,
// reduction ops, dispatch modes, schedule families (ranks spanning one
// node exercise tree/ring, multiple nodes the hierarchical plan), and
// partition counts. Values are small integers, exactly representable in
// every datatype, so any reduction order yields identical bits.

// runPersistent executes waves allreduces through one persistent handle
// (refilling the send buffer per wave) and returns rank 0's result bytes
// per wave.
func runPersistent(t *testing.T, mode Mode, nranks, count, parts, waves int,
	dt mpi.Datatype, op mpi.Op, fill func(wave, rank, i int) float64) [][]byte {
	t.Helper()
	rt := newRuntime(t, "thetagpu", nranks, Options{Backend: Auto, Mode: mode})
	out := make([][]byte, waves)
	for w := range out {
		out[w] = make([]byte, count*dt.Size())
	}
	err := rt.Run(func(x *Comm) {
		esz := int64(dt.Size())
		send := x.Device().MustMalloc(int64(count) * esz)
		recv := x.Device().MustMalloc(int64(count) * esz)
		po, err := x.AllReduceInitPartitioned(send, recv, count, dt, op, parts)
		if err != nil {
			t.Errorf("AllReduceInit: %v", err)
			return
		}
		defer po.Free()
		for w := 0; w < waves; w++ {
			for i := 0; i < count; i++ {
				v := fill(w, x.Rank(), i)
				switch dt {
				case mpi.Float32:
					send.SetFloat32(i, float32(v))
				case mpi.Float64:
					send.SetFloat64(i, v)
				case mpi.Int32:
					send.SetInt32(i, int32(v))
				}
			}
			if err := po.Do(); err != nil {
				t.Errorf("wave %d: %v", w, err)
				return
			}
			if x.Rank() == 0 {
				copy(out[w], recv.Bytes())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runOneShotWaves is the one-shot reference for runPersistent.
func runOneShotWaves(t *testing.T, mode Mode, nranks, count, waves int,
	dt mpi.Datatype, op mpi.Op, fill func(wave, rank, i int) float64) [][]byte {
	t.Helper()
	rt := newRuntime(t, "thetagpu", nranks, Options{Backend: Auto, Mode: mode})
	out := make([][]byte, waves)
	for w := range out {
		out[w] = make([]byte, count*dt.Size())
	}
	err := rt.Run(func(x *Comm) {
		esz := int64(dt.Size())
		send := x.Device().MustMalloc(int64(count) * esz)
		recv := x.Device().MustMalloc(int64(count) * esz)
		for w := 0; w < waves; w++ {
			for i := 0; i < count; i++ {
				v := fill(w, x.Rank(), i)
				switch dt {
				case mpi.Float32:
					send.SetFloat32(i, float32(v))
				case mpi.Float64:
					send.SetFloat64(i, v)
				case mpi.Int32:
					send.SetInt32(i, int32(v))
				}
			}
			x.Allreduce(send, recv, count, dt, op)
			if x.Rank() == 0 {
				copy(out[w], recv.Bytes())
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestPersistentMatchesOneShotProperty(t *testing.T) {
	f := func(seed int64, nRaw, countRaw, dtRaw, opRaw, partsRaw, modeRaw uint8) bool {
		nranks := 2 + int(nRaw%11)   // 2..12: single- and multi-node plans
		count := 1 + int(countRaw)   // 1..256
		parts := 1 + int(partsRaw%4) // 1..4
		const waves = 3              // first wave warms caches; later reuse them
		dts := []mpi.Datatype{mpi.Float32, mpi.Float64, mpi.Int32}
		dt := dts[int(dtRaw)%len(dts)]
		ops := []mpi.Op{mpi.OpSum, mpi.OpMax, mpi.OpMin}
		op := ops[int(opRaw)%len(ops)]
		modes := []Mode{PureCCL, Hybrid, PureMPI}
		mode := modes[int(modeRaw)%len(modes)]
		rng := rand.New(rand.NewSource(seed))
		vals := make([][][]float64, waves)
		for w := range vals {
			vals[w] = make([][]float64, nranks)
			for r := range vals[w] {
				vals[w][r] = make([]float64, count)
				for i := range vals[w][r] {
					vals[w][r][i] = float64(rng.Intn(64))
				}
			}
		}
		fill := func(w, r, i int) float64 { return vals[w][r][i] }
		got := runPersistent(t, mode, nranks, count, parts, waves, dt, op, fill)
		want := runOneShotWaves(t, mode, nranks, count, waves, dt, op, fill)
		for w := range want {
			if len(got[w]) != len(want[w]) {
				return false
			}
			for i := range want[w] {
				if got[w][i] != want[w][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPersistentForcedAlgorithms pins the equivalence per schedule family:
// a tuned table band forces each CCL algorithm and the persistent result
// must still match the one-shot run under the same table.
func TestPersistentForcedAlgorithms(t *testing.T) {
	const nranks, count, waves = 16, 2048, 3
	for _, algo := range []ccl.Algorithm{ccl.AlgoTree, ccl.AlgoFlatRing, ccl.AlgoHierarchical} {
		algo := algo
		t.Run(algo.String(), func(t *testing.T) {
			table := &TuningTable{System: "test", Backend: string(NCCL), Version: TableVersion}
			table.Set(OpAllreduce, []Threshold{{Path: PathCCL, Algo: algo}})
			mk := func(persistent bool) [][]byte {
				rt := newRuntime(t, "thetagpu", nranks,
					Options{Backend: Auto, Mode: Hybrid, Table: table})
				out := make([][]byte, waves)
				for w := range out {
					out[w] = make([]byte, count*4)
				}
				err := rt.Run(func(x *Comm) {
					send := x.Device().MustMalloc(count * 4)
					recv := x.Device().MustMalloc(count * 4)
					var po *PersistentOp
					if persistent {
						var err error
						po, err = x.AllReduceInit(send, recv, count, mpi.Float32, mpi.OpSum)
						if err != nil {
							t.Errorf("init: %v", err)
							return
						}
						defer po.Free()
					}
					for w := 0; w < waves; w++ {
						for i := 0; i < count; i++ {
							send.SetFloat32(i, float32((x.Rank()+i+w)%32))
						}
						if persistent {
							if err := po.Do(); err != nil {
								t.Errorf("wave %d: %v", w, err)
								return
							}
						} else {
							x.Allreduce(send, recv, count, mpi.Float32, mpi.OpSum)
						}
						if x.Rank() == 0 {
							copy(out[w], recv.Bytes())
						}
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			got, want := mk(true), mk(false)
			for w := range want {
				for i := range want[w] {
					if got[w][i] != want[w][i] {
						t.Fatalf("algo %s wave %d byte %d: persistent %d != one-shot %d",
							algo, w, i, got[w][i], want[w][i])
					}
				}
			}
		})
	}
}

// TestPersistentPreadyOrder runs a partitioned handle with partitions
// marked ready in a shuffled order per wave: results must not depend on
// readiness order.
func TestPersistentPreadyOrder(t *testing.T) {
	const nranks, count, parts, waves = 16, 4096, 8, 4
	rng := rand.New(rand.NewSource(7))
	orders := make([][]int, waves)
	for w := range orders {
		orders[w] = rng.Perm(parts)
	}
	run := func(shuffled bool) [][]byte {
		rt := newRuntime(t, "thetagpu", nranks, Options{Backend: Auto, Mode: PureCCL})
		out := make([][]byte, waves)
		for w := range out {
			out[w] = make([]byte, count*4)
		}
		err := rt.Run(func(x *Comm) {
			send := x.Device().MustMalloc(count * 4)
			recv := x.Device().MustMalloc(count * 4)
			po, err := x.AllReduceInitPartitioned(send, recv, count, mpi.Float32, mpi.OpSum, parts)
			if err != nil {
				t.Errorf("init: %v", err)
				return
			}
			defer po.Free()
			for w := 0; w < waves; w++ {
				for i := 0; i < count; i++ {
					send.SetFloat32(i, float32((x.Rank()*31+i+w)%64))
				}
				if err := po.Start(); err != nil {
					t.Errorf("start: %v", err)
					return
				}
				if shuffled {
					for _, k := range orders[w] {
						po.Pready(k)
					}
				} else {
					po.PreadyAll()
				}
				if err := po.Wait(); err != nil {
					t.Errorf("wait: %v", err)
					return
				}
				if x.Rank() == 0 {
					copy(out[w], recv.Bytes())
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	got, want := run(true), run(false)
	for w := range want {
		for i := range want[w] {
			if got[w][i] != want[w][i] {
				t.Fatalf("wave %d byte %d: shuffled Pready %d != in-order %d",
					w, i, got[w][i], want[w][i])
			}
		}
	}
}

// TestPersistentStats pins the dispatch accounting: CCL-path waves count
// as CCLOps, MPI-path (PureMPI) waves as MPIOps, one per wave per rank.
func TestPersistentStats(t *testing.T) {
	const nranks, count, waves = 4, 256, 5
	for _, tc := range []struct {
		mode Mode
		ccl  bool
	}{{PureCCL, true}, {PureMPI, false}} {
		rt := newRuntime(t, "thetagpu", nranks, Options{Backend: Auto, Mode: tc.mode})
		err := rt.Run(func(x *Comm) {
			send := x.Device().MustMalloc(count * 4)
			recv := x.Device().MustMalloc(count * 4)
			po, err := x.AllReduceInit(send, recv, count, mpi.Float32, mpi.OpSum)
			if err != nil {
				t.Errorf("init: %v", err)
				return
			}
			defer po.Free()
			if usesCCL := po.PlannedAlgorithm() != ""; tc.ccl != usesCCL {
				t.Errorf("mode %v: planned algorithm %q, want the CCL path %v", tc.mode, po.PlannedAlgorithm(), tc.ccl)
			}
			for w := 0; w < waves; w++ {
				if err := po.Do(); err != nil {
					t.Errorf("wave %d: %v", w, err)
					return
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		st := rt.Stats()
		want := nranks * waves
		if tc.ccl && st.CCLOps != want {
			t.Errorf("mode %v: CCLOps = %d, want %d", tc.mode, st.CCLOps, want)
		}
		if !tc.ccl && st.MPIOps != want {
			t.Errorf("mode %v: MPIOps = %d, want %d", tc.mode, st.MPIOps, want)
		}
	}
}

// The handle lifecycle must reject use-after-Free and double-Free with
// distinct sentinel errors, on both the CCL-path and MPI-path variants,
// and Pready on a freed handle must be a silent no-op (its wave already
// cannot run).
func TestPersistentFreeStateMachine(t *testing.T) {
	for _, mode := range []Mode{PureCCL, PureMPI} {
		t.Run(mode.String(), func(t *testing.T) {
			rt := newRuntime(t, "thetagpu", 2, Options{Backend: Auto, Mode: mode})
			if err := rt.Run(func(x *Comm) {
				buf := x.Device().MustMalloc(1024)
				defer buf.Free()
				po, err := x.AllReduceInitPartitioned(buf, buf, 256, mpi.Float32, mpi.OpSum, 2)
				if err != nil {
					t.Errorf("init: %v", err)
					return
				}
				if usesCCL := po.PlannedAlgorithm() != ""; usesCCL != (mode == PureCCL) {
					t.Errorf("planned algorithm %q in %v mode", po.PlannedAlgorithm(), mode)
				}
				if err := po.Do(); err != nil {
					t.Errorf("wave before Free: %v", err)
				}
				if err := po.Free(); err != nil {
					t.Errorf("first Free = %v, want nil", err)
				}
				if err := po.Free(); !errors.Is(err, ErrOpDoubleFree) {
					t.Errorf("second Free = %v, want ErrOpDoubleFree", err)
				}
				if err := po.Start(); !errors.Is(err, ErrOpFreed) {
					t.Errorf("Start after Free = %v, want ErrOpFreed", err)
				}
				po.Pready(0) // must not panic or reach the freed schedule
				po.PreadyAll()
				if err := po.Wait(); !errors.Is(err, ErrOpFreed) {
					t.Errorf("Wait after Free = %v, want ErrOpFreed", err)
				}
				if x.Failure() != nil {
					t.Errorf("freed-handle misuse poisoned the communicator: %v", x.Failure())
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Persistent handles whose arguments disagree across ranks at the same
// Init position must be rejected at the CCL layer, not deadlock.
func TestPersistentArgMismatchRejected(t *testing.T) {
	rt := newRuntime(t, "thetagpu", 2, Options{Backend: Auto, Mode: PureCCL})
	errs := make([]error, 2)
	err := rt.Run(func(x *Comm) {
		buf := x.Device().MustMalloc(1024 * 4)
		_, errs[x.Rank()] = x.AllReduceInit(buf, buf, 512*(x.Rank()+1), mpi.Float32, mpi.OpSum)
	})
	if err != nil {
		t.Fatal(err)
	}
	// Whichever rank rendezvoused second saw the mismatch; the first
	// succeeded (its handle is simply never used).
	if errs[0] == nil && errs[1] == nil {
		t.Error("mismatched persistent arguments not rejected on either rank")
	}
}
