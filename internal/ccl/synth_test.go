package ccl_test

import (
	"bytes"
	"errors"
	"testing"

	"mpixccl/internal/ccl"
	"mpixccl/internal/ccl/nccl"
	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/fault"
	"mpixccl/internal/metrics"
	"mpixccl/internal/sim"
)

// newFaultHarness is a 4-rank thetagpu harness with plan attached to its
// fabric.
func newFaultHarness(t *testing.T, plan *fault.Plan) *harness {
	t.Helper()
	return newHarness(t, "thetagpu", 4, func(fab *fabric.Fabric, devs []*device.Device) ([]*ccl.Comm, error) {
		fab.SetFaults(plan)
		return nccl.New(fab, devs)
	})
}

// TestSynthesizedRejectsBadArguments: a negative count or displacement, a
// block that runs past the rank's own buffer, or an alltoallv whose own
// block has different send and recv counts, is rejected at the call
// with ErrInvalidArgument on both the group path ("") and a compiled plan
// ("direct"), before any fault hook is probed. A rule that fires on every
// probe of every op proves it: its Fired count stays at zero until a valid
// call follows.
func TestSynthesizedRejectsBadArguments(t *testing.T) {
	const n, blk = 4, 4 // ranks, elements per block
	ok := func() ([]int, []int) { return []int{blk, blk, blk, blk}, []int{0, blk, 2 * blk, 3 * blk} }
	type call func(c *ccl.Comm, send, recv *device.Buffer, plan string, s *device.Stream) error
	alltoallv := func(scounts, sdispls, rcounts, rdispls []int) call {
		return func(c *ccl.Comm, send, recv *device.Buffer, plan string, s *device.Stream) error {
			return c.Alltoallv(send, scounts, sdispls, recv, rcounts, rdispls, ccl.Float32, plan, s)
		}
	}
	cnt, dsp := ok()
	cases := []struct {
		name     string
		rootOnly bool // only rank 0 calls: the argument is wrong only there
		call     call
	}{
		{"alltoallv/send-past-buffer", false, alltoallv(cnt, []int{0, 4, 8, 1000}, cnt, dsp)},
		{"alltoallv/recv-past-buffer", false, alltoallv(cnt, dsp, cnt, []int{0, 4, 8, 13})},
		{"alltoallv/negative-count", false, alltoallv([]int{blk, -1, blk, blk}, dsp, cnt, dsp)},
		{"alltoallv/negative-displacement", false, alltoallv(cnt, dsp, cnt, []int{0, -4, 8, 12})},
		{"alltoallv/own-counts-differ", true, alltoallv([]int{blk, blk, blk, blk}, dsp, []int{blk - 1, blk, blk, blk}, dsp)},
		{"alltoall/negative-count", false, func(c *ccl.Comm, send, recv *device.Buffer, plan string, s *device.Stream) error {
			return c.Alltoall(send, recv, -1, ccl.Float32, plan, s)
		}},
		{"alltoall/short-send", false, func(c *ccl.Comm, send, recv *device.Buffer, plan string, s *device.Stream) error {
			return c.Alltoall(send.Slice(0, 4*blk*n-4), recv, blk, ccl.Float32, plan, s)
		}},
		{"alltoall/short-recv", false, func(c *ccl.Comm, send, recv *device.Buffer, plan string, s *device.Stream) error {
			return c.Alltoall(send, recv.Slice(0, 4*blk), blk, ccl.Float32, plan, s)
		}},
		{"gather/negative-count", false, func(c *ccl.Comm, send, recv *device.Buffer, plan string, s *device.Stream) error {
			return c.Gather(send, recv, -1, ccl.Float32, 0, plan, s)
		}},
		{"gather/short-root-recv", true, func(c *ccl.Comm, send, recv *device.Buffer, plan string, s *device.Stream) error {
			return c.Gather(send, recv.Slice(0, 4*blk), blk, ccl.Float32, 0, plan, s)
		}},
		{"scatter/short-root-send", true, func(c *ccl.Comm, send, recv *device.Buffer, plan string, s *device.Stream) error {
			return c.Scatter(send.Slice(0, 4*blk), recv, blk, ccl.Float32, 0, plan, s)
		}},
		{"scatter/short-recv", false, func(c *ccl.Comm, send, recv *device.Buffer, plan string, s *device.Stream) error {
			return c.Scatter(send, recv.Slice(0, 4), blk, ccl.Float32, 0, plan, s)
		}},
	}
	for _, tc := range cases {
		for _, plan := range []string{"", "direct"} {
			t.Run(tc.name+"/"+map[string]string{"": "group", "direct": "direct"}[plan], func(t *testing.T) {
				fp := fault.NewPlan(1).AddRule(fault.Rule{Name: "every", Result: ccl.ErrRemote})
				h := newFaultHarness(t, fp)
				h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
					send := c.Device().MustMalloc(4 * blk * n)
					recv := c.Device().MustMalloc(4 * blk * n)
					if tc.rootOnly && r != 0 {
						return
					}
					err := tc.call(c, send, recv, plan, s)
					if !errors.Is(err, ccl.ErrInvalidArgument) {
						t.Errorf("rank %d: err = %v, want ErrInvalidArgument", r, err)
					}
				})
				if got := fp.Fired("every"); got != 0 {
					t.Errorf("bad arguments probed the fault hooks: rule fired %d times", got)
				}
				// The rule is live: a valid call probes it and fails.
				h2 := newFaultHarness(t, fp)
				h2.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
					buf := c.Device().MustMalloc(4 * blk * n)
					if err := c.Alltoall(buf, buf, blk, ccl.Float32, plan, s); !errors.Is(err, ccl.ErrRemote) {
						t.Errorf("rank %d: valid call err = %v, want the injected ErrRemote", r, err)
					}
				})
				if fp.Fired("every") == 0 {
					t.Error("valid call did not fire the rule")
				}
			})
		}
	}
}

// TestSynthesizedSendErrorAbortsGroup: an injected send error partway
// through the group alltoall returns that error and discards the rank's
// open group, so the next GroupStart on the same handle succeeds and a
// reissued alltoall completes with the right blocks.
func TestSynthesizedSendErrorAbortsGroup(t *testing.T) {
	const n, blk = 4, 64
	// Rank 0's second send (to rank 2) fails once.
	fp := fault.NewPlan(1).AddRule(fault.Rule{Name: "send", Op: "send", Ranks: []int{0},
		After: 1, Count: 1, Result: ccl.ErrRemote})
	h := newFaultHarness(t, fp)
	recvs := make([]*device.Buffer, n)
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		send := c.Device().MustMalloc(4 * blk * n)
		recv := c.Device().MustMalloc(4 * blk * n)
		fillBytes(send, r)
		err := c.Alltoall(send, recv, blk, ccl.Float32, "", s)
		if r == 0 {
			if !errors.Is(err, ccl.ErrRemote) {
				t.Fatalf("rank 0: err = %v, want the injected ErrRemote", err)
			}
			if err := c.GroupStart(); err != nil {
				t.Fatalf("GroupStart after a failed group alltoall: %v", err)
			}
			if err := c.GroupEnd(); err != nil {
				t.Fatal(err)
			}
			err = c.Alltoall(send, recv, blk, ccl.Float32, "", s)
		}
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		s.Synchronize(p)
		recvs[r] = recv
	})
	if got := fp.Fired("send"); got != 1 {
		t.Errorf("send rule fired %d times, want 1", got)
	}
	const b = 4 * blk // block bytes
	for r, recv := range recvs {
		for q := 0; q < n; q++ {
			want := make([]byte, b)
			for i := range want {
				want[i] = byte((q*31 + (r*b+i)*7) % 251) // fillBytes of q's block r
			}
			if !bytes.Equal(recv.Bytes()[q*b:(q+1)*b], want) {
				t.Errorf("rank %d: block from %d wrong", r, q)
			}
		}
	}
}

// TestSynthesizedOpRuleScope: the group path probes faults only at its
// sends, receives and group task, so a rule scoped to op "alltoall" never
// fires on plan "" and fires once per rank on a compiled plan.
func TestSynthesizedOpRuleScope(t *testing.T) {
	const n, blk = 4, 16
	fp := fault.NewPlan(1).AddRule(fault.Rule{Name: "a2a", Op: "alltoall", Result: ccl.ErrRemote})
	h := newFaultHarness(t, fp)
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		send, recv := c.Device().MustMalloc(4*blk*n), c.Device().MustMalloc(4*blk*n)
		if err := c.Alltoall(send, recv, blk, ccl.Float32, "", s); err != nil {
			t.Errorf("rank %d group alltoall: %v", r, err)
		}
		s.Synchronize(p)
		if err := c.Alltoall(send, recv, blk, ccl.Float32, "direct", s); !errors.Is(err, ccl.ErrRemote) {
			t.Errorf("rank %d compiled alltoall: err = %v, want ErrRemote", r, err)
		}
	})
	if got := fp.Fired("a2a"); got != n {
		t.Errorf("alltoall rule fired %d times, want %d (once per rank, compiled only)", got, n)
	}
}

// withMetrics wraps a communicator constructor so that it attaches reg to
// the fabric first, where the communicators pick it up.
func withMetrics(reg *metrics.Registry, mk func(*fabric.Fabric, []*device.Device) ([]*ccl.Comm, error)) func(*fabric.Fabric, []*device.Device) ([]*ccl.Comm, error) {
	return func(fab *fabric.Fabric, devs []*device.Device) ([]*ccl.Comm, error) {
		fab.SetMetrics(reg)
		return mk(fab, devs)
	}
}

// TestSynthesizedEmptyBlocks: a count-0 alltoall still pays its empty
// point-to-point messages (one group per rank fusing n−1 sends and n−1
// receives) and takes virtual time, while Listing 1's alltoallv posts no
// message for an empty block, so an all-zero alltoallv launches nothing.
func TestSynthesizedEmptyBlocks(t *testing.T) {
	const n = 4
	reg := metrics.NewRegistry()
	h := newHarness(t, "thetagpu", n, withMetrics(reg, nccl.New))
	lbl := metrics.Labels{"backend": h.comms[0].Backend()}
	zero := make([]int, n)
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		buf := c.Device().MustMalloc(64)
		start := p.Now()
		if err := c.Alltoallv(buf, zero, zero, buf, zero, zero, ccl.Float32, "", s); err != nil {
			t.Error(err)
		}
		s.Synchronize(p)
		if p.Now() != start {
			t.Errorf("rank %d: empty alltoallv took %v, want no time", r, p.Now()-start)
		}
	})
	if v, ok := reg.CounterValue("ccl_group_calls_total", lbl); !ok || v != 0 {
		t.Errorf("empty alltoallv made %v group calls (series exists %v), want 0", v, ok)
	}
	reg = metrics.NewRegistry()
	h = newHarness(t, "thetagpu", n, withMetrics(reg, nccl.New))
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		buf := c.Device().MustMalloc(64)
		start := p.Now()
		if err := c.Alltoall(buf, buf, 0, ccl.Float32, "", s); err != nil {
			t.Error(err)
		}
		s.Synchronize(p)
		if p.Now() == start {
			t.Errorf("rank %d: count-0 alltoall took no time, want its empty messages paid", r)
		}
	})
	if v, _ := reg.CounterValue("ccl_group_calls_total", lbl); v != n {
		t.Errorf("count-0 alltoall made %v group calls, want %d", v, n)
	}
	if v, _ := reg.CounterValue("ccl_group_fused_ops_total", lbl); v != 2*n*(n-1) {
		t.Errorf("count-0 alltoall fused %v sends and receives, want %d", v, 2*n*(n-1))
	}
}

// TestSynthesizedOwnBlockInStreamOrder: the group path copies the rank's
// own block when the stream reaches the call, not when the call is
// enqueued, so it reads what an earlier op on the same stream wrote to
// send, also when the call has no message to send (one rank, or an
// alltoallv whose only block is the rank's own). Every rank allreduces
// ones into b, runs the collective from b into out on the same stream and
// synchronizes once; the filled elements of out must all read n.
func TestSynthesizedOwnBlockInStreamOrder(t *testing.T) {
	const blk = 16
	ownOnly := func(c *ccl.Comm, b, out *device.Buffer, s *device.Stream) error {
		n, r := c.Size(), c.Rank()
		counts, displs := make([]int, n), make([]int, n)
		counts[r], displs[r] = blk, r*blk
		return c.Alltoallv(b, counts, displs, out, counts, displs, ccl.Float32, "", s)
	}
	alltoall := func(c *ccl.Comm, b, out *device.Buffer, s *device.Stream) error {
		return c.Alltoall(b, out, blk, ccl.Float32, "", s)
	}
	cases := []struct {
		name string
		n    int
		call func(c *ccl.Comm, b, out *device.Buffer, s *device.Stream) error
		// filled is the element range [lo, hi) of out the call writes.
		filled func(r, n int) (lo, hi int)
	}{
		{"alltoall", 4, alltoall, func(r, n int) (int, int) { return 0, n * blk }},
		{"alltoall/one-rank", 1, alltoall, func(r, n int) (int, int) { return 0, blk }},
		{"alltoallv/own-block-only", 4, ownOnly, func(r, n int) (int, int) { return r * blk, (r + 1) * blk }},
		{"gather", 4, func(c *ccl.Comm, b, out *device.Buffer, s *device.Stream) error {
			return c.Gather(b, out, blk, ccl.Float32, 0, "", s)
		}, func(r, n int) (int, int) {
			if r == 0 {
				return 0, n * blk
			}
			return 0, 0
		}},
		{"scatter", 4, func(c *ccl.Comm, b, out *device.Buffer, s *device.Stream) error {
			return c.Scatter(b, out, blk, ccl.Float32, 0, "", s)
		}, func(r, n int) (int, int) { return 0, blk }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, "thetagpu", tc.n, nccl.New)
			h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
				count := tc.n * blk
				a := c.Device().MustMalloc(int64(count) * 4)
				b := c.Device().MustMalloc(int64(count) * 4)
				out := c.Device().MustMalloc(int64(count) * 4)
				a.FillFloat32(1)
				if err := c.AllReduce(a, b, count, ccl.Float32, ccl.Sum, s); err != nil {
					t.Fatal(err)
				}
				if err := tc.call(c, b, out, s); err != nil {
					t.Fatal(err)
				}
				s.Synchronize(p)
				lo, hi := tc.filled(r, tc.n)
				for i := lo; i < hi; i++ {
					if got := out.Float32(i); got != float32(tc.n) {
						t.Fatalf("rank %d: out[%d] = %v, want %d", r, i, got, tc.n)
					}
				}
			})
		})
	}
}
