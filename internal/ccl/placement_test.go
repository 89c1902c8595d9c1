package ccl_test

import (
	"fmt"
	"testing"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/ccl/nccl"
	"mpixccl/internal/ccl/rccl"
	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/fault"
	"mpixccl/internal/metrics"
	"mpixccl/internal/sim"
)

// The ring allgather phases place each incoming segment straight into the
// receiver's buffer instead of a scratch slot, and the reduce steps of the
// ring, leader-ring and binomial-tree schedules reduce straight from the
// sender's segment. These tests pin the things that must not change: every
// output element, on ring sizes and shapes where neighbors drift apart
// (uneven segments, mixed intra- and inter-node hops, several ops queued
// per stream, persistent waves), the modeled time of each schedule, and
// that corruption injection still sees every reduced transfer.

type ringShape struct {
	system string
	n      int
	mk     func(*fabric.Fabric, []*device.Device) ([]*ccl.Comm, error)
}

func (sh ringShape) String() string { return fmt.Sprintf("%s/%d", sh.system, sh.n) }

var ringShapes = []ringShape{
	{"thetagpu", 2, nccl.New},
	{"thetagpu", 3, nccl.New},
	{"thetagpu", 5, nccl.New},
	{"thetagpu", 12, nccl.New}, // 8 + 4 ranks on two nodes
	{"mri", 5, rccl.New},       // 2 + 2 + 1: most hops cross nodes
}

// ringVal is rank r's input element i of op j: small integers, so int32
// sums are exact in any order.
func ringVal(r, i, j int) int32 { return int32((r*7919 + i*31 + j*101) % 1000) }

func ringSum(n, i, j int) int32 {
	var s int32
	for r := 0; r < n; r++ {
		s += ringVal(r, i, j)
	}
	return s
}

// TestRingPlacementExact queues several flat-ring, tree and hierarchical
// allreduces (in place and out of place), hierarchical reduce-scatters and
// ring allgathers per stream before synchronizing once, then checks every
// element.
func TestRingPlacementExact(t *testing.T) {
	for _, sh := range ringShapes {
		t.Run(sh.String(), func(t *testing.T) {
			n := sh.n
			counts := []int{n, 2*n + 1, 4099}
			h := newHarness(t, sh.system, n, sh.mk)
			const (
				reduce = iota
				gather
				scatter
			)
			type check struct {
				buf   *device.Buffer
				kind  int
				count int
				j     int
			}
			checks := make([][]check, n)
			h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
				fill := func(count, j int) *device.Buffer {
					b := c.Device().MustMalloc(int64(count) * 4)
					for i := 0; i < count; i++ {
						b.SetInt32(i, ringVal(r, i, j))
					}
					return b
				}
				j := 0
				for _, algo := range []ccl.Algorithm{ccl.AlgoFlatRing, ccl.AlgoTree, ccl.AlgoHierarchical} {
					c.SetAlgorithm(algo, 1024) // small hierarchical chunks: short segments
					for _, count := range counts {
						send := fill(count, j)
						recv := c.Device().MustMalloc(int64(count) * 4)
						if err := c.AllReduce(send, recv, count, ccl.Int32, ccl.Sum, s); err != nil {
							t.Errorf("allreduce: %v", err)
							return
						}
						checks[r] = append(checks[r], check{buf: recv, count: count, j: j})
						j++
						inPlace := fill(count, j)
						if err := c.AllReduce(inPlace, inPlace, count, ccl.Int32, ccl.Sum, s); err != nil {
							t.Errorf("in-place allreduce: %v", err)
							return
						}
						checks[r] = append(checks[r], check{buf: inPlace, count: count, j: j})
						j++
					}
				}
				c.SetAlgorithm(ccl.AlgoHierarchical, 1024)
				for _, count := range []int{1, 3, 1000} {
					send := fill(n*count, j)
					recv := c.Device().MustMalloc(int64(count) * 4)
					if err := c.ReduceScatter(send, recv, count, ccl.Int32, ccl.Sum, s); err != nil {
						t.Errorf("reducescatter: %v", err)
						return
					}
					checks[r] = append(checks[r], check{buf: recv, kind: scatter, count: count, j: j})
					j++
				}
				c.SetAlgorithm(ccl.AlgoAuto, 0)
				for _, count := range []int{1, 3, 1000} {
					send := fill(count, j)
					all := c.Device().MustMalloc(int64(n*count) * 4)
					if err := c.AllGather(send, all, count, ccl.Int32, s); err != nil {
						t.Errorf("allgather: %v", err)
						return
					}
					checks[r] = append(checks[r], check{buf: all, kind: gather, count: count, j: j})
					j++
				}
				s.Synchronize(p)
			})
			for r, cs := range checks {
				for _, ck := range cs {
					switch ck.kind {
					case gather:
						for src := 0; src < n; src++ {
							for i := 0; i < ck.count; i++ {
								if got, want := ck.buf.Int32(src*ck.count+i), ringVal(src, i, ck.j); got != want {
									t.Fatalf("allgather op %d rank %d block %d elem %d = %d, want %d", ck.j, r, src, i, got, want)
								}
							}
						}
					case scatter:
						for i := 0; i < ck.count; i++ {
							if got, want := ck.buf.Int32(i), ringSum(n, r*ck.count+i, ck.j); got != want {
								t.Fatalf("reducescatter op %d (count %d) rank %d elem %d = %d, want %d", ck.j, ck.count, r, i, got, want)
							}
						}
					default:
						for i := 0; i < ck.count; i++ {
							if got, want := ck.buf.Int32(i), ringSum(n, i, ck.j); got != want {
								t.Fatalf("allreduce op %d (count %d) rank %d elem %d = %d, want %d", ck.j, ck.count, r, i, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// TestPersistentRingPlacementExact runs persistent ring allreduce and
// allgather handles for several waves, changing the payload between waves,
// so a wave's placed segments land in buffers the previous wave read.
func TestPersistentRingPlacementExact(t *testing.T) {
	for _, sh := range ringShapes {
		t.Run(sh.String(), func(t *testing.T) {
			n := sh.n
			const waves = 3
			count := 3*n + 2
			h := newHarness(t, sh.system, n, sh.mk)
			h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
				c.SetAlgorithm(ccl.AlgoFlatRing, 0)
				buf := c.Device().MustMalloc(int64(count) * 4)
				ar, err := c.AllReduceInit(buf, buf, count, ccl.Int32, ccl.Sum, s)
				if err != nil {
					t.Errorf("allreduce init: %v", err)
					return
				}
				send := c.Device().MustMalloc(int64(count) * 4)
				all := c.Device().MustMalloc(int64(n*count) * 4)
				ag, err := c.AllgatherInit(send, all, count, ccl.Int32, s)
				if err != nil {
					t.Errorf("allgather init: %v", err)
					return
				}
				for w := 0; w < waves; w++ {
					for i := 0; i < count; i++ {
						buf.SetInt32(i, ringVal(r, i, w))
						send.SetInt32(i, ringVal(r, i, w+waves))
					}
					if err := ar.Do(p); err != nil {
						t.Errorf("allreduce wave %d: %v", w, err)
						return
					}
					if err := ag.Do(p); err != nil {
						t.Errorf("allgather wave %d: %v", w, err)
						return
					}
					for i := 0; i < count; i++ {
						if got, want := buf.Int32(i), ringSum(n, i, w); got != want {
							t.Errorf("wave %d rank %d allreduce elem %d = %d, want %d", w, r, i, got, want)
							return
						}
						for src := 0; src < n; src++ {
							if got, want := all.Int32(src*count+i), ringVal(src, i, w+waves); got != want {
								t.Errorf("wave %d rank %d allgather block %d elem %d = %d, want %d", w, r, src, i, got, want)
								return
							}
						}
					}
				}
				ar.Free()
				ag.Free()
			})
		})
	}
}

// TestRingScheduleVirtualTime pins the modeled completion time of the ring
// schedules whose allgather phases place data directly: placement changes
// what the simulator copies, never what the model charges.
func TestRingScheduleVirtualTime(t *testing.T) {
	cases := []struct {
		name   string
		shape  ringShape
		algo   ccl.Algorithm
		gather bool
		bytes  int64
		want   time.Duration
	}{
		{"ring-allreduce", ringShape{"thetagpu", 8, nccl.New}, ccl.AlgoFlatRing, false, 2 << 20, 94626 * time.Nanosecond},
		{"ring-allreduce-2nodes", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoFlatRing, false, 1 << 20, 207832 * time.Nanosecond},
		{"ring-allreduce-mri", ringShape{"mri", 5, rccl.New}, ccl.AlgoFlatRing, false, 1<<20 + 12, 342449 * time.Nanosecond},
		{"hier-allreduce", ringShape{"thetagpu", 16, nccl.New}, ccl.AlgoHierarchical, false, 4 << 20, 357180 * time.Nanosecond},
		{"ring-allgather", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoAuto, true, 256 << 10, 219507 * time.Nanosecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.shape.n
			count := int(tc.bytes / 4)
			h := newHarness(t, tc.shape.system, n, tc.shape.mk)
			h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
				c.SetAlgorithm(tc.algo, 0)
				send := c.Device().MustMalloc(int64(count) * 4)
				var err error
				if tc.gather {
					err = c.AllGather(send, c.Device().MustMalloc(int64(n*count)*4), count, ccl.Float32, s)
				} else {
					err = c.AllReduce(send, c.Device().MustMalloc(int64(count)*4), count, ccl.Float32, ccl.Sum, s)
				}
				if err != nil {
					t.Error(err)
					return
				}
				s.Synchronize(p)
			})
			if got := h.k.Now(); got != tc.want {
				t.Errorf("modeled time %v (%d ns), want %v", got, int64(got), tc.want)
			}
		})
	}
}

// TestReduceOnReceiveStagedUnderCorruption runs ring and hierarchical
// allreduces with a corrupt rule attached, which must put every reduce step
// back on the staged path: injected corruption lands in a real copy. The
// rule flips one byte of the first transfer, always a reduce step. Without
// integrity that byte is reduced into a partial sum and reaches every
// rank's result — a flip in a later, placed or broadcast, transfer would
// spare the segment's owner, so a reduce step that skipped the copy (and
// with it the corrupter) fails the count. With integrity on, the checksum
// catches the flip, the retransmit heals it, and the sum is exact.
func TestReduceOnReceiveStagedUnderCorruption(t *testing.T) {
	cases := []struct {
		name  string
		shape ringShape
		algo  ccl.Algorithm
	}{
		{"ring", ringShape{"thetagpu", 5, nccl.New}, ccl.AlgoFlatRing},
		{"ring-mri", ringShape{"mri", 5, rccl.New}, ccl.AlgoFlatRing},
		{"hier", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoHierarchical},
	}
	for _, tc := range cases {
		for _, integrity := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/integrity=%v", tc.name, integrity), func(t *testing.T) {
				n, count := tc.shape.n, 4099
				h := newHarness(t, tc.shape.system, n, tc.shape.mk)
				reg := metrics.NewRegistry()
				h.fab.SetMetrics(reg)
				h.fab.SetFaults(fault.NewPlan(1).AddCorruptRule(fault.CorruptRule{Name: "flip", Count: 1}))
				if integrity {
					h.fab.SetIntegrity(fabric.Integrity{Enabled: true, MaxRetries: 2})
				}
				bufs := make([]*device.Buffer, n)
				h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
					c.SetAlgorithm(tc.algo, 1024)
					b := c.Device().MustMalloc(int64(count) * 4)
					for i := 0; i < count; i++ {
						b.SetInt32(i, ringVal(r, i, 0))
					}
					if err := c.AllReduce(b, b, count, ccl.Int32, ccl.Sum, s); err != nil {
						t.Errorf("allreduce: %v", err)
						return
					}
					s.Synchronize(p)
					bufs[r] = b
				})
				wrong := 0
				for _, b := range bufs {
					for i := 0; i < count; i++ {
						if b.Int32(i) != ringSum(n, i, 0) {
							wrong++
							break
						}
					}
				}
				var detected float64
				for _, link := range []string{"intra", "inter"} {
					v, _ := reg.CounterValue("xccl_corruptions_detected_total", metrics.Labels{"link": link})
					detected += v
				}
				if integrity {
					if wrong != 0 {
						t.Errorf("%d ranks hold a wrong sum with integrity on", wrong)
					}
					if detected == 0 {
						t.Error("integrity detected no corruption")
					}
				} else if wrong != n {
					t.Errorf("%d of %d ranks carry the flipped byte; a reduce-step flip reaches every rank", wrong, n)
				}
			})
		}
	}
}
