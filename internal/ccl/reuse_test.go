package ccl

import (
	"errors"
	"testing"
	"time"

	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// cutUntil is a fabric.Partitioner that severs every inter-node route until
// the given virtual time.
type cutUntil time.Duration

func (c cutUntil) Severed(a, b int, now time.Duration) bool {
	return a != b && now < time.Duration(c)
}

func (c cutUntil) RanksSevered(a, b int, now time.Duration) bool { return false }

func (c cutUntil) PartitionedNow(now time.Duration) bool { return now < time.Duration(c) }

func (c cutUntil) PartitionedUntil(now time.Duration) (time.Duration, bool) {
	if now < time.Duration(c) {
		return time.Duration(c), true
	}
	return 0, true
}

func (c cutUntil) HasPartitions() bool { return true }

// TestReuseAfterAbortGetsFreshPipes runs a flat-ring allreduce across a
// network cut, which aborts it mid-schedule with stranded credits and
// signals, and then, after the cut heals, the same allreduce again. The
// aborted op must return neither its state nor its pipes to the
// communicator, so the second op builds fresh ones: its result is exact,
// and its modeled time equals the same call's on a fresh communicator.
func TestReuseAfterAbortGetsFreshPipes(t *testing.T) {
	const (
		nranks = 16 // two thetagpu nodes
		count  = 64 << 10
		heal   = 5 * time.Millisecond
	)
	// run drives one world: with cut, a first allreduce crosses the cut;
	// either way every rank then starts the measured allreduce at heal.
	// It returns the measured call's modeled time.
	run := func(cut bool) time.Duration {
		k := sim.NewKernel()
		sys, err := topology.Preset(k, "thetagpu", 2)
		if err != nil {
			t.Fatal(err)
		}
		fab := fabric.New(k, sys)
		if cut {
			fab.SetFaults(cutUntil(heal))
		}
		comms, err := NewComms(fab, sys.Devices()[:nranks], testBackend())
		if err != nil {
			t.Fatal(err)
		}
		co := comms[0].core
		bar := sim.NewBarrier(k, nranks)
		var aborted *opState
		var end time.Duration
		err = Run(comms, func(c *Comm, s *device.Stream, p *sim.Proc) {
			c.SetAlgorithm(AlgoFlatRing, 0)
			buf := c.Device().MustMalloc(count * 4)
			fill := func(w int) {
				for i := 0; i < count; i++ {
					buf.SetInt32(i, int32(c.Rank()*7+i%13+w))
				}
			}
			if cut {
				fill(0)
				if err := c.AllReduce(buf, buf, count, Int32, Sum, s); err != nil {
					t.Error(err)
				}
				if c.Rank() == 0 {
					aborted = co.ops[0]
				}
				s.Synchronize(p)
				if err := c.TakeAsyncErr(); !errors.Is(err, ErrUnreachable) {
					t.Errorf("rank %d: allreduce across the cut: %v, want ErrUnreachable", c.Rank(), err)
				}
				bar.Wait(p)
				if c.Rank() == 0 {
					if len(co.opFree) != 0 {
						t.Error("an aborted op returned its state to the communicator")
					}
					for key, pp := range co.idlePipes {
						if pp != nil {
							t.Errorf("an aborted op parked its %v pipe", key)
						}
					}
				}
			}
			p.Sleep(heal - p.Now())
			bar.Wait(p)
			start := p.Now()
			fill(1)
			if err := c.AllReduce(buf, buf, count, Int32, Sum, s); err != nil {
				t.Error(err)
			}
			s.Synchronize(p)
			if err := c.TakeAsyncErr(); err != nil {
				t.Errorf("rank %d: allreduce after the heal: %v", c.Rank(), err)
			}
			end = max(end, p.Now()-start)
			for i := 0; i < count; i++ {
				want := int32(0)
				for r := 0; r < nranks; r++ {
					want += int32(r*7 + i%13 + 1)
				}
				if got := buf.Int32(i); got != want {
					t.Fatalf("rank %d elem %d = %d after the heal, want %d", c.Rank(), i, got, want)
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if aborted != nil {
			if len(aborted.pipes) == 0 {
				t.Fatal("the aborted op touched no pipe")
			}
			for _, st := range co.opFree {
				if st == aborted {
					t.Error("the op after the abort reused the aborted op's state")
				}
			}
			for key, pp := range co.idlePipes {
				for ; pp != nil; pp = pp.next {
					if pp == aborted.pipes[key] {
						t.Errorf("the op after the abort reused the aborted op's %v pipe", key)
					}
				}
			}
		}
		return end
	}
	if got, want := run(true), run(false); got != want {
		t.Errorf("allreduce after an aborted one took %v, want %v as on a fresh communicator", got, want)
	}
}
