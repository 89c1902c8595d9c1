package core

import (
	"errors"
	"testing"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/fault"
	"mpixccl/internal/mpi"
)

// admissionCell is one rank's subject for TestAdmissionParity: a handle
// factory in the row's membership state, plus a persistent handle built
// (on pre) before the state was entered.
type admissionCell struct {
	pre    *Comm
	po     *PersistentOp
	handle func() *Comm
}

// Every entry point runs the same admission order: for each membership
// state (row), a one-shot Allreduce, an AllReduceInit and a Start on a
// handle built before the fault (columns) give the same verdict, and the
// handle's Failure() records it.
func TestAdmissionParity(t *testing.T) {
	const count = 64
	cut := 50 * time.Microsecond
	initOn := func(t *testing.T, c *Comm) *PersistentOp {
		buf := c.Device().MustMalloc(count * 4)
		po, err := c.AllReduceInit(buf, buf, count, mpi.Float32, mpi.OpSum)
		if err != nil {
			t.Errorf("rank %d pre-fault Init: %v", c.Rank(), err)
		}
		return po
	}
	fresh := func(rt *Runtime, c *mpi.Comm) func() *Comm {
		return func() *Comm { return rt.Wrap(c) }
	}
	cutPlan := func() *fault.Plan {
		return fault.NewPlan(1).AddPartitionRule(fault.PartitionRule{
			Name: "cut", Nodes: []int{1}, From: cut,
		})
	}

	rows := []struct {
		name   string
		nranks int
		pol    *Resilience
		plan   func() *fault.Plan
		// enter drives one rank into the row's state and returns its
		// subject, or nil when the rank is not probed.
		enter func(t *testing.T, rt *Runtime, x *Comm) *admissionCell
		want  error
	}{
		{
			name: "healthy", nranks: 4, pol: watchdogPolicy(),
			enter: func(t *testing.T, rt *Runtime, x *Comm) *admissionCell {
				pre := rt.Wrap(x.MPI())
				return &admissionCell{pre, initOn(t, pre), fresh(rt, x.MPI())}
			},
		},
		{
			// An exact 50/50 split: both halves fence, nobody revokes.
			name: "fenced", nranks: 16, pol: watchdogPolicy(), plan: cutPlan,
			enter: func(t *testing.T, rt *Runtime, x *Comm) *admissionCell {
				pre := rt.Wrap(x.MPI())
				po := initOn(t, pre)
				x.MPI().Proc().Sleep(cut)
				if _, err := x.Shrink(); !errors.Is(err, ErrNoQuorum) {
					t.Errorf("rank %d shrink = %v, want ErrNoQuorum", x.Rank(), err)
					return nil
				}
				return &admissionCell{pre, po, fresh(rt, x.MPI())}
			},
			want: ErrFenced,
		},
		{
			// 8 + 4: the majority's Shrink revokes the context the fenced
			// minority still holds; the fence comes first in the order.
			name: "fenced-revoked", nranks: 12, pol: watchdogPolicy(), plan: cutPlan,
			enter: func(t *testing.T, rt *Runtime, x *Comm) *admissionCell {
				pre := rt.Wrap(x.MPI())
				po := initOn(t, pre)
				x.MPI().Proc().Sleep(cut)
				_, err := x.Shrink()
				if x.MPI().WorldRank() < 8 {
					if err != nil {
						t.Errorf("majority rank %d shrink: %v", x.Rank(), err)
					}
					return nil
				}
				if !errors.Is(err, ErrNoQuorum) {
					t.Errorf("minority rank %d shrink = %v, want ErrNoQuorum", x.Rank(), err)
					return nil
				}
				// Let the majority's agreement (and its revoke) finish.
				x.MPI().Proc().Sleep(time.Millisecond)
				return &admissionCell{pre, po, fresh(rt, x.MPI())}
			},
			want: ErrFenced,
		},
		{
			name: "revoked", nranks: 4, pol: watchdogPolicy(),
			enter: func(t *testing.T, rt *Runtime, x *Comm) *admissionCell {
				pre := rt.Wrap(x.MPI())
				po := initOn(t, pre)
				x.Revoke()
				return &admissionCell{pre, po, fresh(rt, x.MPI())}
			},
			want: ErrCommRevoked,
		},
		{
			// Death is a property of the handle that observed it, so every
			// column probes that handle.
			name: "self-dead", nranks: 4, pol: watchdogPolicy(),
			plan: func() *fault.Plan {
				return fault.NewPlan(1).AddRule(fault.Rule{
					Name: "crash", Crash: true, Ranks: []int{1}, Op: "allreduce", After: 1,
				})
			},
			enter: func(t *testing.T, rt *Runtime, x *Comm) *admissionCell {
				pre := rt.Wrap(x.MPI())
				po := initOn(t, pre)
				buf := x.Device().MustMalloc(count * 4)
				defer buf.Free()
				pre.Allreduce(buf, buf, count, mpi.Float32, mpi.OpSum)
				pre.Allreduce(buf, buf, count, mpi.Float32, mpi.OpSum) // rank 1 dies here
				if x.Rank() != 1 {
					return nil
				}
				if !pre.Dead() {
					t.Errorf("rank 1 not dead after its crash: %v", pre.Failure())
					return nil
				}
				return &admissionCell{pre, po, func() *Comm { return pre }}
			},
			want: ccl.ErrRankDead,
		},
		{
			// 3 active ranks and 1 spare: rank 1 crashes, the survivors
			// shrink, and a Grow supersedes the shrunk context.
			name: "stale epoch", nranks: 4, pol: watchdogPolicy(),
			plan: func() *fault.Plan {
				return fault.NewPlan(1).AddRule(fault.Rule{
					Name: "crash", Crash: true, Ranks: []int{1}, From: cut,
				})
			},
			enter: func(t *testing.T, rt *Runtime, x *Comm) *admissionCell {
				if x.Rank() == 3 {
					if _, ok := x.WaitAsSpare(nil); !ok {
						t.Error("spare released without adoption")
					}
					return nil
				}
				x = rt.Wrap(x.MPI().Subset([]int{0, 1, 2}))
				if x.Rank() == 1 {
					return nil
				}
				x.MPI().Proc().Sleep(cut)
				buf := x.Device().MustMalloc(count * 4)
				defer buf.Free()
				x.Allreduce(buf, buf, count, mpi.Float32, mpi.OpSum)
				if !errors.Is(x.Failure(), ccl.ErrRankDead) {
					t.Errorf("rank %d failure = %v, want ErrRankDead", x.Rank(), x.Failure())
					return nil
				}
				nx, err := x.Shrink()
				if err != nil {
					t.Errorf("rank %d shrink: %v", x.Rank(), err)
					return nil
				}
				pre := rt.Wrap(nx.MPI())
				po := initOn(t, pre)
				if _, _, err := nx.Grow(1); err != nil {
					t.Errorf("rank %d grow: %v", x.Rank(), err)
					return nil
				}
				return &admissionCell{pre, po, fresh(rt, nx.MPI())}
			},
			want: ErrStaleEpoch,
		},
		{
			name: "suspected peer", nranks: 4, pol: heartbeatPolicy(),
			plan: func() *fault.Plan {
				return fault.NewPlan(1).AddRule(fault.Rule{
					Name: "die", Crash: true, Ranks: []int{3}, From: time.Millisecond,
				})
			},
			enter: func(t *testing.T, rt *Runtime, x *Comm) *admissionCell {
				pre := rt.Wrap(x.MPI())
				po := initOn(t, pre)
				if x.Rank() == 3 {
					return nil
				}
				x.MPI().Proc().Sleep(2 * time.Millisecond)
				if _, ok := rt.Suspected()[3]; !ok {
					t.Errorf("rank %d: detector has not confirmed rank 3", x.Rank())
					return nil
				}
				return &admissionCell{pre, po, fresh(rt, x.MPI())}
			},
			want: ccl.ErrRankDead,
		},
		{
			name: "severed peer", nranks: 12, pol: watchdogPolicy(), plan: cutPlan,
			enter: func(t *testing.T, rt *Runtime, x *Comm) *admissionCell {
				pre := rt.Wrap(x.MPI())
				po := initOn(t, pre)
				x.MPI().Proc().Sleep(cut)
				return &admissionCell{pre, po, fresh(rt, x.MPI())}
			},
			want: ccl.ErrUnreachable,
		},
	}

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			rt := newRuntime(t, "thetagpu", row.nranks, Options{
				Backend: Auto, Mode: PureCCL, Resilience: row.pol,
			})
			if row.plan != nil {
				rt.Job().Fabric().SetFaults(row.plan())
			}
			check := func(x *Comm, col string, err error, h *Comm) {
				if !errors.Is(err, row.want) {
					t.Errorf("world rank %d %s = %v, want %v", x.MPI().WorldRank(), col, err, row.want)
				}
				if f := h.Failure(); !errors.Is(f, row.want) {
					t.Errorf("world rank %d %s: Failure() = %v, want %v", x.MPI().WorldRank(), col, f, row.want)
				}
			}
			if err := rt.Run(func(x *Comm) {
				cell := row.enter(t, rt, x)
				if cell == nil || cell.po == nil {
					return
				}
				buf := x.Device().MustMalloc(count * 4)
				defer buf.Free()

				h := cell.handle()
				h.Allreduce(buf, buf, count, mpi.Float32, mpi.OpSum)
				check(x, "Allreduce", h.Failure(), h)

				h = cell.handle()
				po, err := h.AllReduceInit(buf, buf, count, mpi.Float32, mpi.OpSum)
				check(x, "AllReduceInit", err, h)
				if po != nil {
					defer po.Free()
				}

				err = cell.po.Start()
				check(x, "Start", err, cell.pre)
				if err == nil {
					cell.po.PreadyAll()
					if werr := cell.po.Wait(); werr != nil {
						t.Errorf("world rank %d Wait: %v", x.MPI().WorldRank(), werr)
					}
				}
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
