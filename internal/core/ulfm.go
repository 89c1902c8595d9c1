package core

import (
	"errors"
	"time"
)

// ULFM-style fail-stop recovery (User Level Failure Mitigation, the MPI
// forum's fault-tolerance proposal): the runtime detects a dead rank via
// the collective watchdog (Resilience.WatchdogTimeout), the application
// revokes the broken communicator, and the survivors agree on the member
// set and shrink to a working communicator:
//
//	detect (Failure != nil) -> Revoke -> Shrink -> continue on survivors
//
// A rank that observes its own crash (Dead) exits instead of shrinking.

// ErrCommRevoked reports a collective attempted on a revoked communicator:
// the operation did nothing, and the caller must Shrink (or abandon the
// communicator) to make progress.
var ErrCommRevoked = errors.New("xccl: communicator revoked")

// Failure returns the first verdict this rank observed on the
// communicator — one of the five the Comm.failure field lists. nil means
// every collective so far completed. Check it after each collective
// when running with the watchdog armed — the collectives themselves do not
// return errors (MPI semantics).
func (x *Comm) Failure() error { return x.failure }

// Dead reports whether this rank itself fail-stopped: its own CCL call
// failed with its own rank named. A dead rank must exit — it is the rank
// the survivors are agreeing to exclude.
func (x *Comm) Dead() bool { return x.dead }

// Revoke marks the communicator revoked (MPI_Comm_revoke): every rank's
// subsequent collectives on it no-op with Failure() == ErrCommRevoked, so
// no survivor can block on a collective the dead rank will never join.
// Any rank may revoke; duplicates are no-ops. The revoking rank pays one
// control message per surviving peer (the revoke flood).
func (x *Comm) Revoke() {
	rt := x.rt
	ctx := x.mpi.ContextID()
	if rt.status[ctx] == ctxRevoked {
		return
	}
	rt.status[ctx] = ctxRevoked
	fab := x.mpi.Job().Fabric()
	fs := fab.FailStop()
	now := x.mpi.Proc().Now()
	for r := 0; r < x.Size(); r++ {
		if r == x.Rank() || (fs != nil && fs.RankDead(x.mpi.WorldRankOf(r), now)) {
			continue
		}
		// Routing failures are ignored: revocation is best-effort
		// notification, and the shared runtime state already carries it.
		_, _ = fab.TryControlMsg(x.mpi.Proc(), x.Device(), x.mpi.RankDevice(r))
	}
	rt.emit(event{kind: evRevoke, rank: x.Rank(), at: now})
}

// Shrink builds the survivor communicator (MPI_Comm_shrink): the ranks
// still alive agree on the member set — everyone the fail-stop detector
// has not declared dead — and derive a fresh communicator containing only
// them, with a fresh CCL communicator built lazily on first use. Every
// survivor must call it (dead ranks, by definition, cannot); a Dead rank
// gets its own failure back. The returned handle carries the caller's new
// rank and size; its CCL communicator probes fault rules by world rank,
// so the survivors' renumbering does not re-trigger the old crash rule.
//
// The survivors meet in agree, coordinated by the lowest-ranked survivor.
func (x *Comm) Shrink() (*Comm, error) {
	if x.dead {
		return nil, x.failure
	}
	rt := x.rt
	if rt.partitioner() != nil {
		// Quorum gate (failure model v3): this rank may only shrink with
		// the peers it can actually reach. Anything short of a strict
		// majority of the pre-failure size would fork the membership (the
		// far side would shrink too), so the minority — and both halves of
		// an exact 50/50 split — fences itself instead of entering the
		// agreement. The gate never fires without a partition oracle,
		// keeping the crash-only path intact.
		now := x.mpi.Proc().Now()
		if view, _ := x.survivorView(now); len(view)*2 <= x.Size() {
			rt.fence(x, now)
			return nil, ErrNoQuorum
		}
	}
	// Shrinking implies revocation: late ranks that skipped the explicit
	// Revoke must still stop dispatching on the old handle.
	x.Revoke()
	a := x.agree(func() *agreement {
		a := &agreement{op: "shrink", status: ctxRevoked}
		a.voters, a.cut = x.survivorView(x.mpi.Proc().Now())
		a.members = a.voters
		return a
	}, nil)
	return rt.Wrap(x.mpi.Subset(a.members)), nil
}

// survivorView lists, ascending, the local ranks this rank can shrink with
// at now — alive, and not severed from it — and counts the alive ranks a
// partition excludes. The cut is a clean bipartition, so every majority
// rank computes the same view, and the fenced minority never agrees.
func (x *Comm) survivorView(now time.Duration) (view []int, cut int) {
	fs := x.mpi.Job().Fabric().FailStop()
	for r := 0; r < x.Size(); r++ {
		if fs != nil && fs.RankDead(x.mpi.WorldRankOf(r), now) {
			continue
		}
		if r != x.Rank() && x.rt.severedPair(x.mpi, x.Rank(), r, now) {
			cut++
			continue
		}
		view = append(view, r)
	}
	return view, cut
}
