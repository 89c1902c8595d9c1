package core

import (
	"errors"
	"fmt"
	"sort"

	"mpixccl/internal/sim"
)

// Spare-rank regrowth: the inverse of the ULFM-style Shrink. A job is
// launched with more ranks than the application needs; the extras park in
// the runtime's spare pool (WaitAsSpare) until the survivors of a crash
// call Grow, which adopts spares via a join rendezvous and hands every
// participant a communicator at the restored width:
//
//	detect -> Revoke -> Shrink -> Grow (adopt spares) -> continue at full width
//
// Spares restore their replica state from the application's checkpoint
// (the restore callback) before joining, so the first collective on the
// grown communicator sees peers with consistent state.

// ErrNoSpares reports a Grow attempted with an empty spare pool: the
// communicator keeps its current (shrunk) width.
var ErrNoSpares = errors.New("xccl: no spare ranks available")

// spareSlot is one parked spare rank awaiting adoption.
type spareSlot struct {
	worldRank int
	join      *sim.Event
	members   []int // agreed member world ranks, set on adoption
	released  bool  // the job drained without adopting this spare
}

// WaitAsSpare parks this rank in the runtime's spare pool until a Grow
// adopts it or the job drains. Call it on the world communicator before
// any collective; ranks above the application's active width do this
// first thing. On adoption the restore callback (when non-nil) runs
// before the join completes — the place to load replica state from a
// checkpoint, paying its virtual-time cost while the survivors wait at
// the join rendezvous — and the returned communicator contains the
// survivors plus the adopted spares at their agreed world-rank order.
// The bool is false when the job finished without needing this spare.
func (x *Comm) WaitAsSpare(restore func()) (*Comm, bool) {
	rt := x.rt
	p := x.mpi.Proc()
	wr := x.mpi.WorldRank()
	slot := &spareSlot{worldRank: wr, join: sim.NewEvent(p.Kernel())}
	rt.sparePool[wr] = slot
	slot.join.Wait(p)
	if slot.released {
		return nil, false
	}
	if restore != nil {
		restore()
	}
	world := rt.worldMPI[wr]
	if world == nil {
		world = x.mpi
	}
	// World-communicator local ranks are world ranks, so the agreed member
	// list doubles as the Subset argument.
	return rt.Wrap(world.Subset(slot.members)), true
}

// Grow rebuilds the communicator at a larger width by adopting up to need
// ranks from the spare pool (fewer when the pool is short — inspect the
// returned world ranks). Every member of the (typically just-shrunk)
// communicator must call it, like Shrink; the adopted spares participate
// from their WaitAsSpare park. The returned communicator orders members
// by world rank and builds its CCL communicator lazily on first use.
// Grow requires ranks launched through Runtime.Run (the world handles it
// registers are how survivors and spares meet); ErrNoSpares means the
// pool was empty and the caller keeps its current width.
func (x *Comm) Grow(need int) (*Comm, []int, error) {
	if x.dead {
		return nil, nil, x.failure
	}
	rt := x.rt
	if need <= 0 {
		return x, nil, nil
	}
	p := x.mpi.Proc()
	world := rt.worldMPI[x.mpi.WorldRank()]
	if world == nil {
		return nil, nil, fmt.Errorf("xccl: Grow requires ranks launched through Runtime.Run")
	}
	fab := x.mpi.Job().Fabric()
	a := x.agree(func() *agreement {
		// Every member votes to local rank 0, and the broadcast skips it.
		a := &agreement{op: "grow", status: ctxSuperseded, skipCoord: true}
		for r := 0; r < x.Size(); r++ {
			a.voters = append(a.voters, r)
			a.members = append(a.members, x.mpi.WorldRankOf(r))
		}
		avail := rt.availableSpares()
		if len(avail) == 0 {
			a.err = ErrNoSpares
			return a
		}
		a.adopted = avail[:min(need, len(avail))]
		a.members = append(a.members, a.adopted...)
		sort.Ints(a.members)
		return a
	}, func(a *agreement) {
		// Close step: invite each adopted spare before the broadcast.
		for _, spare := range a.adopted {
			slot := rt.sparePool[spare]
			if dev := rt.worldMPI[spare]; dev != nil {
				_, _ = fab.TryControlMsg(p, x.mpi.RankDevice(0), dev.Device())
			}
			slot.members = a.members
			delete(rt.sparePool, spare)
			// A rejoining fenced rank unfences itself before parking;
			// clearing here too keeps the invariant (no fenced member in a
			// live communicator) independent of the join path.
			rt.unfence(spare)
			slot.join.Fire()
		}
	})
	if a.err != nil {
		return nil, nil, a.err
	}
	return rt.Wrap(world.Subset(a.members)), a.adopted, nil
}

// availableSpares lists the parked, unadopted spare world ranks ascending.
func (rt *Runtime) availableSpares() []int {
	out := make([]int, 0, len(rt.sparePool))
	for wr := range rt.sparePool {
		out = append(out, wr)
	}
	sort.Ints(out)
	return out
}

// releaseSpares wakes every parked spare without adoption (the job is
// draining). Iterates in rank order so the wakeups are deterministic.
func (rt *Runtime) releaseSpares() {
	for _, wr := range rt.availableSpares() {
		slot := rt.sparePool[wr]
		slot.released = true
		delete(rt.sparePool, wr)
		slot.join.Fire()
	}
}
