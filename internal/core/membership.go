package core

import (
	"errors"
	"fmt"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/sim"
)

// The membership path of the dispatch layer, one step at a time: every
// entry point that starts collective work (one-shot collectives, persistent
// Init and Start) passes admit; every error that ends an operation passes
// noteVerdict; and both membership changes, Shrink and Grow, run agree.

// ctxStatus is a communicator context's membership status. Contexts absent
// from Runtime.status are open.
type ctxStatus uint8

const (
	ctxOpen       ctxStatus = iota
	ctxRevoked              // Revoke or Shrink: ErrCommRevoked
	ctxSuperseded           // a Grow replaced the member set: ErrStaleEpoch
)

// err is the verdict a handle on a context with this status receives.
func (s ctxStatus) err() error {
	switch s {
	case ctxRevoked:
		return ErrCommRevoked
	case ctxSuperseded:
		return ErrStaleEpoch
	}
	return nil
}

// admit is the pre-dispatch membership check, in one order for every entry
// point:
//
//  1. a fenced rank (minority side of a partition) lost the quorum vote
//     and must Rejoin, not dispatch: ErrFenced;
//  2. a dead handle must stop participating (its peers' watchdogs already
//     wrote it off), and a revoked context accepts no new collectives
//     until the survivors Shrink it: ErrCommRevoked;
//  3. a context a Grow superseded would remix the two sides of a healed
//     partition: ErrStaleEpoch;
//  4. a peer the heartbeat detector confirmed dead would stall the
//     operation until the watchdog fires: the same ErrRankDead verdict,
//     now;
//  5. a peer on the far side of an active cut makes the operation
//     unrunnable: ErrUnreachable, in bounded time, so the caller escalates
//     to the quorum Shrink instead of timing out.
//
// A rejected operation does nothing. Stages 1–3 record their verdict on
// the handle unless one is already there and return the handle's verdict;
// stages 4–5 go through noteVerdict and return their own.
func (x *Comm) admit(op OpKind) error {
	rt := x.rt
	var verdict error
	if _, bad := rt.fenced[x.mpi.WorldRank()]; bad {
		verdict = ErrFenced
	} else if x.dead {
		verdict = ErrCommRevoked
	} else {
		verdict = rt.status[x.mpi.ContextID()].err()
	}
	if verdict != nil {
		if x.failure == nil {
			x.failure = verdict
		}
		return x.failure
	}
	var err error
	if hm := rt.health; hm != nil && len(hm.suspected) > 0 {
		self := x.mpi.WorldRank()
		for r := 0; r < x.Size() && err == nil; r++ {
			wr := x.mpi.WorldRankOf(r)
			if wr == self {
				continue
			}
			if t, ok := hm.suspected[wr]; ok {
				err = &ccl.Error{Backend: string(rt.kind), Result: ccl.ErrRankDead,
					Op: string(op), Rank: wr,
					Msg: fmt.Sprintf("heartbeat detector suspected rank %d dead at %v", wr, t)}
			}
		}
	}
	if pt := rt.partitioner(); err == nil && pt != nil {
		if now := x.mpi.Proc().Now(); pt.PartitionedNow(now) {
			self := x.Rank()
			for r := 0; r < x.Size() && err == nil; r++ {
				if r != self && rt.severedPair(x.mpi, self, r, now) {
					wr := x.mpi.WorldRankOf(r)
					err = &ccl.Error{Backend: string(rt.kind), Result: ccl.ErrUnreachable,
						Op: string(op), Rank: wr,
						Msg: fmt.Sprintf("rank %d unreachable across a network partition", wr)}
				}
			}
		}
	}
	if err != nil {
		x.noteVerdict(op, err)
	}
	return err
}

// noteVerdict classifies an error that ended an operation, records it on
// the handle and emits one verdict event. ErrRankDead is a fail-stop
// verdict: when it names this rank the handle is dead, and the event is
// self-named (exactly one rank observes each crash as its own, so failure
// counts stay exact rather than per-witness). ErrUnreachable is a
// partition verdict: the severed peer is alive (the quorum Shrink counts
// the episode). Only the first verdict per handle is emitted — a caller
// that keeps dispatching on the broken communicator, legal until it
// revokes, fails again on every op, and those repeats must not inflate the
// counters or the trace.
//
// It reports whether err was one of these verdicts. Either one ends the
// operation: retrying cannot succeed, and the MPI fallback would block on
// the same dead or severed peer. Any other error is not terminal.
func (x *Comm) noteVerdict(op OpKind, err error) bool {
	dead := errors.Is(err, ccl.ErrRankDead)
	if dead {
		var ce *ccl.Error
		if errors.As(err, &ce) && ce.Rank == x.mpi.WorldRank() {
			x.dead = true
		}
	} else if !errors.Is(err, ccl.ErrUnreachable) {
		return false
	}
	if x.failure != nil {
		return true
	}
	x.failure = err
	x.rt.emit(event{kind: evVerdict, op: op, rank: x.Rank(), dead: dead, self: x.dead,
		at: x.mpi.Proc().Now()})
	return true
}

// agreement is one in-flight membership agreement on a communicator
// context: the simulation's stand-in for ULFM's agreement protocol,
// charged at fabric control-message cost. Shrink and Grow fill in what
// differs between them; agree does the rest.
type agreement struct {
	op      string // "shrink" or "grow": names the retire record
	voters  []int  // participating local ranks, ascending; voters[0] coordinates
	members []int  // the decided member set, the new communicator's Subset argument
	// skipCoord makes the decision broadcast skip the coordinator rather
	// than the closing rank.
	skipCoord bool
	status    ctxStatus // what closing does to the old context
	err       error     // a decided failure: nothing is broadcast or retired

	cut     int   // Shrink: alive ranks excluded as unreachable
	adopted []int // Grow: spare world ranks being adopted, ascending

	arrived int
	ready   *sim.Event
}

// agree runs one membership agreement on x's context. The first arrival
// decides it: the member set is fixed per agreement, so every participant
// waits for the same peers, and later changes are a different epoch. Every
// participant but the coordinator sends it one vote. The last arrival
// closes: invite (when non-nil) runs, the coordinator broadcasts the
// decision, the old context retires, and everyone wakes.
func (x *Comm) agree(decide func() *agreement, invite func(*agreement)) *agreement {
	rt := x.rt
	p := x.mpi.Proc()
	fab := x.mpi.Job().Fabric()
	ctx := x.mpi.ContextID()
	a, ok := rt.agreements[ctx]
	if !ok {
		a = decide()
		a.ready = sim.NewEvent(p.Kernel())
		rt.agreements[ctx] = a
	}
	coord := a.voters[0]
	if x.Rank() != coord {
		_, _ = fab.TryControlMsg(p, x.Device(), x.mpi.RankDevice(coord))
	}
	a.arrived++
	if a.arrived < len(a.voters) {
		a.ready.Wait(p)
		return a
	}
	if a.err == nil {
		if invite != nil {
			invite(a)
		}
		skip := x.Rank()
		if a.skipCoord {
			skip = coord
		}
		for _, r := range a.voters {
			if r != skip {
				_, _ = fab.TryControlMsg(p, x.mpi.RankDevice(coord), x.mpi.RankDevice(r))
			}
		}
		rt.retire(ctx, a, p.Now())
	}
	delete(rt.agreements, ctx)
	a.ready.Fire()
	return a
}

// retire closes an agreement on the old context: it takes the agreement's
// status (a revoked context stays revoked), its cached CCL communicators
// are dropped, and one retire event advances the membership epoch.
func (rt *Runtime) retire(ctx int, a *agreement, now time.Duration) {
	if rt.status[ctx] != ctxRevoked {
		rt.status[ctx] = a.status
	}
	delete(rt.cache, ctx)
	rt.emit(event{kind: evRetire, op: OpKind(a.op), at: now, members: len(a.members), cut: a.cut})
}
