package core

import (
	"errors"
	"time"

	"mpixccl/internal/fabric"
	"mpixccl/internal/mpi"
)

// Epoch-based quorum membership (failure model v3). Crashes (v1, PR 4) and
// heartbeat suspicion with spare regrowth (v2, PR 7) both assume every
// survivor can reach every other; a network partition breaks that and would
// either deadlock both sides or let each half Shrink into its own divergent
// world (split brain). This layer makes membership changes safe under
// partitions:
//
//   - The communicator carries a membership epoch, bumped by every Shrink
//     and Grow. Handles whose context a Grow superseded reject further
//     collectives with ErrStaleEpoch, so operations from the two sides of
//     a healed cut can never interleave on one member set.
//   - Shrink takes a quorum vote: each caller computes its reachable
//     survivor view (alive AND not severed from it), and only a strict
//     majority of the pre-failure size may shrink. The minority — and both
//     halves of an exact 50/50 split, the price of strict quorum — fences
//     itself instead: Shrink returns ErrNoQuorum, the rank is marked
//     fenced, and every later collective on any of its handles fails fast
//     with ErrFenced in bounded virtual time.
//   - After the cut heals, fenced ranks Rejoin: wait out the partition (a
//     single deterministic sleep on the oracle's heal time), unfence, and
//     park in the spare pool, re-entering through the same Grow rendezvous
//     a cold spare uses — checkpoint resync included via the restore
//     callback.
//
// Detection is oracle-driven: the fault plan's partition rules are pure
// time-window functions (fabric.Partitioner), so every rank and every
// engine shard derives the same verdict at the same virtual time — the
// property the cross-shard determinism tests pin. The heartbeat detector
// observes cuts too ("partitioned" suspicion outcome) but never converts
// them into death verdicts: a severed peer is alive.

// ErrNoQuorum reports a Shrink attempted from the minority side of a
// network partition: fewer than a strict majority of the communicator's
// ranks are reachable, so shrinking would fork the membership. The rank is
// now fenced; after the cut heals it may Rejoin.
var ErrNoQuorum = errors.New("xccl: no quorum: this rank is on the minority side of a network partition")

// ErrFenced reports a collective attempted by a fenced rank (the minority
// side of a partition after a failed quorum vote). The operation did
// nothing; the rank must Rejoin after the partition heals.
var ErrFenced = errors.New("xccl: rank is fenced (minority side of a network partition)")

// ErrStaleEpoch reports a collective attempted on a communicator whose
// membership epoch has been superseded by a Grow: the handle describes a
// member set that no longer exists. Use the communicator returned by
// Grow/Rejoin instead.
var ErrStaleEpoch = errors.New("xccl: stale membership epoch (communicator superseded by a Grow)")

// partitioner returns the fault plan's partition oracle, or nil when the
// attached agent does not model network partitions.
func (rt *Runtime) partitioner() fabric.Partitioner {
	return rt.job.Fabric().Partitioner()
}

// HasPartitions reports whether the job's fault plan carries any armed
// partition rule. Partition-aware training loops (dl.TrainElastic) use it
// to decide whether to poll for regrowth after a quorum shrink.
func (rt *Runtime) HasPartitions() bool {
	pt := rt.partitioner()
	return pt != nil && pt.HasPartitions()
}

// Epoch reports the current membership epoch: the number of completed
// membership changes (Shrinks and Grows) since the job started.
func (rt *Runtime) Epoch() int { return rt.stats.Epoch }

// Fenced returns a copy of the fenced-rank set: world rank -> virtual time
// of fencing. Nil when no rank is fenced.
func (rt *Runtime) Fenced() map[int]time.Duration {
	if len(rt.fenced) == 0 {
		return nil
	}
	out := make(map[int]time.Duration, len(rt.fenced))
	for r, t := range rt.fenced {
		out[r] = t
	}
	return out
}

// fence marks this rank fenced (once) and emits the fence event. A fenced
// rank's collectives fail fast with ErrFenced until Rejoin.
func (rt *Runtime) fence(x *Comm, now time.Duration) {
	wr := x.mpi.WorldRank()
	if _, ok := rt.fenced[wr]; ok {
		return
	}
	rt.fenced[wr] = now
	rt.emit(event{kind: evFence, rank: x.Rank(), peer: wr, at: now})
}

// unfence clears a rank's fence (it is rejoining through the spare pool).
func (rt *Runtime) unfence(wr int) { delete(rt.fenced, wr) }

// severedPair reports whether the oracle severs local ranks a and b of c at
// now — by their devices' nodes (node-scoped cuts, the ones the fabric also
// enforces) or by their world ranks (rank-scoped membership cuts).
func (rt *Runtime) severedPair(c *mpi.Comm, a, b int, now time.Duration) bool {
	pt := rt.partitioner()
	if pt == nil {
		return false
	}
	da, db := c.RankDevice(a), c.RankDevice(b)
	if da != nil && db != nil && pt.Severed(da.Node, db.Node, now) {
		return true
	}
	return pt.RanksSevered(c.WorldRankOf(a), c.WorldRankOf(b), now)
}

// Rejoin re-enters the job after this rank fenced itself: it waits out the
// active partition (one deterministic sleep to the oracle's heal time),
// unfences, and parks in the spare pool, where the majority's next Grow
// adopts it — the same join rendezvous a cold spare uses, so the returned
// communicator's members all hold consistent replica state once restore
// (the checkpoint reload) has run. The bool is false when the partition
// never heals or the job drains first: the caller should return, letting
// the job finish at its shrunken width.
func (x *Comm) Rejoin(restore func()) (*Comm, bool) {
	rt := x.rt
	p := x.mpi.Proc()
	if pt := rt.partitioner(); pt != nil {
		for {
			until, heals := pt.PartitionedUntil(p.Now())
			if !heals {
				return nil, false
			}
			if until <= p.Now() {
				break
			}
			p.Sleep(until - p.Now())
		}
	}
	rt.unfence(x.mpi.WorldRank())
	return x.WaitAsSpare(restore)
}
