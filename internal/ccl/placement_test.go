package ccl_test

import (
	"crypto/sha256"
	"encoding/hex"
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
// element, and that every out-of-place send buffer still holds its input:
// peers read a rank's input from its send buffer in place.
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
				send  *device.Buffer // out of place: must still hold ringVal(r, ·, j)
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
						checks[r] = append(checks[r], check{buf: recv, send: send, count: count, j: j})
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
					checks[r] = append(checks[r], check{buf: recv, send: send, kind: scatter, count: count, j: j})
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
					checks[r] = append(checks[r], check{buf: all, send: send, kind: gather, count: count, j: j})
					j++
				}
				s.Synchronize(p)
			})
			for r, cs := range checks {
				for _, ck := range cs {
					if ck.send != nil {
						for i := 0; i < int(ck.send.Len()/4); i++ {
							if got, want := ck.send.Int32(i), ringVal(r, i, ck.j); got != want {
								t.Fatalf("op %d rank %d send elem %d = %d after the call, want its input %d", ck.j, r, i, got, want)
							}
						}
					}
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

// TestPersistentRingPlacementExact runs a persistent ring allreduce handle
// and one-shot ring allgathers, which reuse the communicator's pipes, for
// several waves, changing the payload between waves, so a wave's placed
// segments land in buffers the previous wave read. An
// out-of-place partitioned hierarchical allreduce handle rides along: on the
// multi-node shapes it stages each chunk as its partition becomes ready,
// and its ranks read their input from the send buffer in place.
func TestPersistentRingPlacementExact(t *testing.T) {
	for _, sh := range ringShapes {
		t.Run(sh.String(), func(t *testing.T) {
			n := sh.n
			const waves = 3
			const parts = 3
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
				c.SetAlgorithm(ccl.AlgoHierarchical, 0)
				hin := c.Device().MustMalloc(int64(count) * 4)
				hout := c.Device().MustMalloc(int64(count) * 4)
				hr, err := c.AllReduceInitPartitioned(hin, hout, count, ccl.Int32, ccl.Sum, parts, s)
				if err != nil {
					t.Errorf("partitioned allreduce init: %v", err)
					return
				}
				for w := 0; w < waves; w++ {
					for i := 0; i < count; i++ {
						buf.SetInt32(i, ringVal(r, i, w))
						send.SetInt32(i, ringVal(r, i, w+waves))
						hin.SetInt32(i, ringVal(r, i, w+2*waves))
					}
					if err := ar.Do(p); err != nil {
						t.Errorf("allreduce wave %d: %v", w, err)
						return
					}
					if err := c.AllGather(send, all, count, ccl.Int32, s); err != nil {
						t.Errorf("allgather wave %d: %v", w, err)
						return
					}
					if err := hr.Start(); err != nil {
						t.Errorf("partitioned allreduce wave %d: %v", w, err)
						return
					}
					for k := parts - 1; k >= 0; k-- {
						hr.Pready(k)
					}
					if err := hr.Wait(p); err != nil {
						t.Errorf("partitioned allreduce wave %d: %v", w, err)
						return
					}
					for i := 0; i < count; i++ {
						if got, want := buf.Int32(i), ringSum(n, i, w); got != want {
							t.Errorf("wave %d rank %d allreduce elem %d = %d, want %d", w, r, i, got, want)
							return
						}
						if got, want := hout.Int32(i), ringSum(n, i, w+2*waves); got != want {
							t.Errorf("wave %d rank %d partitioned allreduce elem %d = %d, want %d", w, r, i, got, want)
							return
						}
						if got, want := hin.Int32(i), ringVal(r, i, w+2*waves); got != want {
							t.Errorf("wave %d rank %d partitioned allreduce send elem %d = %d after the wave, want its input %d", w, r, i, got, want)
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
				hr.Free()
			})
		})
	}
}

// TestRingScheduleVirtualTime pins the modeled completion time of three
// back-to-back calls of each ring, tree and hierarchical schedule, one-shot
// and (allreduce) persistent: neither placement nor the helper processes that carry the
// asynchronous sends may change what the model charges, on the first call
// or on the calls that reuse what the first one set up. bytes is the
// per-rank payload (the recv block of a reduce-scatter); the zero-byte rows
// pin the empty calls, which still send one zero-byte step per tree edge
// or ring step. Broadcast and reduce rows use root 3: not rank 0, and not
// a node leader on these shapes, so the hierarchical row substitutes the
// root for its node's leader. The one-rank rows use root 0.
func TestRingScheduleVirtualTime(t *testing.T) {
	const ns = time.Nanosecond
	cases := []struct {
		name    string
		shape   ringShape
		algo    ccl.Algorithm
		coll    string // allreduce | allgather | reducescatter | broadcast | reduce
		persist bool   // a persistent allreduce handle's waves instead of one-shot calls
		parts   int    // partitions of a persistent allreduce
		bytes   int64
		want    [3]time.Duration
	}{
		{"ring-allreduce", ringShape{"thetagpu", 8, nccl.New}, ccl.AlgoFlatRing, "allreduce", false, 1, 2 << 20,
			[3]time.Duration{94626 * ns, 189252 * ns, 283878 * ns}},
		{"ring-allreduce-2nodes", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoFlatRing, "allreduce", false, 1, 1 << 20,
			[3]time.Duration{207832 * ns, 415664 * ns, 623496 * ns}},
		{"ring-allreduce-mri", ringShape{"mri", 5, rccl.New}, ccl.AlgoFlatRing, "allreduce", false, 1, 1<<20 + 12,
			[3]time.Duration{342449 * ns, 684898 * ns, 1027347 * ns}},
		{"hier-allreduce", ringShape{"thetagpu", 16, nccl.New}, ccl.AlgoHierarchical, "allreduce", false, 1, 4 << 20,
			[3]time.Duration{357180 * ns, 714360 * ns, 1071540 * ns}},
		{"ring-allgather", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoAuto, "allgather", false, 1, 256 << 10,
			[3]time.Duration{219507 * ns, 439014 * ns, 658521 * ns}},
		{"hier-allgather", ringShape{"thetagpu", 16, nccl.New}, ccl.AlgoHierarchical, "allgather", false, 1, 256 << 10,
			[3]time.Duration{297723 * ns, 595446 * ns, 893169 * ns}},
		{"ring-reducescatter", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoAuto, "reducescatter", false, 1, 128 << 10,
			[3]time.Duration{141345 * ns, 282690 * ns, 424035 * ns}},
		{"hier-reducescatter", ringShape{"thetagpu", 16, nccl.New}, ccl.AlgoHierarchical, "reducescatter", false, 1, 128 << 10,
			[3]time.Duration{188043 * ns, 376086 * ns, 564129 * ns}},
		{"persistent-ring-allreduce", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoFlatRing, "allreduce", true, 1, 1 << 20,
			[3]time.Duration{207832 * ns, 415664 * ns, 623496 * ns}},
		{"persistent-hier-allreduce", ringShape{"thetagpu", 16, nccl.New}, ccl.AlgoHierarchical, "allreduce", true, 1, 4 << 20,
			[3]time.Duration{357180 * ns, 714360 * ns, 1071540 * ns}},
		{"persistent-hier-allreduce-parts", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoHierarchical, "allreduce", true, 4, 1 << 20,
			[3]time.Duration{139419 * ns, 278838 * ns, 418257 * ns}},
		{"tree-allreduce", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoTree, "allreduce", false, 1, 64 << 10,
			[3]time.Duration{52363 * ns, 104726 * ns, 157089 * ns}},
		{"tree-allreduce-mri", ringShape{"mri", 5, rccl.New}, ccl.AlgoTree, "allreduce", false, 1, 4<<10 + 12,
			[3]time.Duration{50745 * ns, 101490 * ns, 152235 * ns}},
		{"persistent-tree-allreduce", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoTree, "allreduce", true, 1, 64 << 10,
			[3]time.Duration{52363 * ns, 104726 * ns, 157089 * ns}},
		{"tree-broadcast", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoAuto, "broadcast", false, 1, 1 << 20,
			[3]time.Duration{215340 * ns, 430680 * ns, 646020 * ns}},
		{"hier-broadcast", ringShape{"thetagpu", 16, nccl.New}, ccl.AlgoHierarchical, "broadcast", false, 1, 4 << 20,
			[3]time.Duration{396051 * ns, 792102 * ns, 1188153 * ns}},
		{"zero-allreduce", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoAuto, "allreduce", false, 1, 0,
			[3]time.Duration{42400 * ns, 84800 * ns, 127200 * ns}},
		{"persistent-zero-allreduce", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoAuto, "allreduce", true, 1, 0,
			[3]time.Duration{42400 * ns, 84800 * ns, 127200 * ns}},
		{"zero-broadcast", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoAuto, "broadcast", false, 1, 0,
			[3]time.Duration{34100 * ns, 68200 * ns, 102300 * ns}},
		{"tree-reduce", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoAuto, "reduce", false, 1, 1 << 20,
			[3]time.Duration{188822 * ns, 377644 * ns, 566466 * ns}},
		{"tree-reduce-mri", ringShape{"mri", 5, rccl.New}, ccl.AlgoAuto, "reduce", false, 1, 64<<10 + 12,
			[3]time.Duration{55329 * ns, 110658 * ns, 165987 * ns}},
		{"ring-reducescatter-mri", ringShape{"mri", 5, rccl.New}, ccl.AlgoAuto, "reducescatter", false, 1, 32<<10 + 12,
			[3]time.Duration{66871 * ns, 133742 * ns, 200613 * ns}},
		{"zero-allgather", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoAuto, "allgather", false, 1, 0,
			[3]time.Duration{60700 * ns, 121400 * ns, 182100 * ns}},
		{"zero-reducescatter", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoAuto, "reducescatter", false, 1, 0,
			[3]time.Duration{60700 * ns, 121400 * ns, 182100 * ns}},
		{"zero-reduce", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoAuto, "reduce", false, 1, 0,
			[3]time.Duration{30400 * ns, 60800 * ns, 91200 * ns}},
		{"one-rank-reduce", ringShape{"thetagpu", 1, nccl.New}, ccl.AlgoAuto, "reduce", false, 1, 64 << 10,
			[3]time.Duration{20092 * ns, 40184 * ns, 60276 * ns}},
		{"one-rank-allgather", ringShape{"thetagpu", 1, nccl.New}, ccl.AlgoAuto, "allgather", false, 1, 64 << 10,
			[3]time.Duration{20046 * ns, 40092 * ns, 60138 * ns}},
		{"one-rank-reducescatter", ringShape{"thetagpu", 1, nccl.New}, ccl.AlgoAuto, "reducescatter", false, 1, 64 << 10,
			[3]time.Duration{20092 * ns, 40184 * ns, 60276 * ns}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.shape.n
			root := min(3, n-1)
			count := int(tc.bytes / 4)
			h := newHarness(t, tc.shape.system, n, tc.shape.mk)
			var got [3]time.Duration // latest rank's completion per call
			h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
				c.SetAlgorithm(tc.algo, 0)
				in, out := int64(count)*4, int64(count)*4
				switch tc.coll {
				case "allgather":
					out *= int64(n)
				case "reducescatter":
					in *= int64(n)
				}
				send, recv := c.Device().MustMalloc(in), c.Device().MustMalloc(out)
				done := func(i int) {
					if now := p.Now(); now > got[i] {
						got[i] = now
					}
				}
				if tc.persist {
					pc, err := c.AllReduceInitPartitioned(send, recv, count, ccl.Float32, ccl.Sum, tc.parts, s)
					if err != nil {
						t.Error(err)
						return
					}
					for i := range got {
						if err := pc.Do(p); err != nil {
							t.Error(err)
							return
						}
						done(i)
					}
					return
				}
				var calls [3]*sim.Event
				for i := range calls {
					var err error
					switch tc.coll {
					case "allgather":
						err = c.AllGather(send, recv, count, ccl.Float32, s)
					case "reducescatter":
						err = c.ReduceScatter(send, recv, count, ccl.Float32, ccl.Sum, s)
					case "broadcast":
						err = c.Broadcast(send, recv, count, ccl.Float32, root, s)
					case "reduce":
						err = c.Reduce(send, recv, count, ccl.Float32, ccl.Sum, root, s)
					default:
						err = c.AllReduce(send, recv, count, ccl.Float32, ccl.Sum, s)
					}
					if err != nil {
						t.Error(err)
						return
					}
					calls[i] = s.Record()
				}
				for i, ev := range calls {
					ev.Wait(p)
					done(i)
				}
			})
			if got != tc.want {
				t.Errorf("modeled completion times %v (%d, %d, %d ns), want %v",
					got, int64(got[0]), int64(got[1]), int64(got[2]), tc.want)
			}
		})
	}
}

// flatVal is rank r's float32 input element i of op j: a quotient with no
// exact binary form, so any change in the order or association of a
// reduction changes the sum's bits.
func flatVal(r, i, j int) float32 {
	return float32(ringVal(r, i, j)) / float32(3+(r+i)%7)
}

// TestFlatScheduleResultBytes pins a SHA-256 of the result bytes of the
// flat Reduce (root 3, the root's recv), allgather and reduce-scatter
// (every rank's recv, in rank order) on a faithful fabric and with
// integrity on, which runs every hop by hop. The float inputs are not exact
// under reassociation, so a schedule that reduces in another operand order
// fails the hash, as one whose bytes differ between the regimes does.
func TestFlatScheduleResultBytes(t *testing.T) {
	const (
		root        = 3
		reduceCount = 1003
		block       = 257
	)
	want := map[string]map[string]string{
		"thetagpu/12": {
			"reduce":        "4b17f83ed35ea89c20588bfd7bde07eb59c3d14c880c3a9396dae63c903e7daf",
			"allgather":     "9f58b90aef6f96ad480d0cb2cbacc4774ed7d249bcea5c6b9dc444b7605e998a",
			"reducescatter": "9fe027844de96bd1ceb8f73e73f4f2dd83ea31ab58cf878286238820cf414f9c",
		},
		"mri/5": {
			"reduce":        "8e561438160cb0862acfd493c14d9949d25dcff4cf2dd9720fcefe6234d23a9f",
			"allgather":     "1124f1ffa71b7de42365f3a7cdd2b76807fb449ecee2522d54956f521126aee1",
			"reducescatter": "395ff2d3185ba8f8bb01aa0542fc19ed6e00a6765fb7ffb628e0610a3397d8db",
		},
	}
	for _, sh := range []ringShape{{"thetagpu", 12, nccl.New}, {"mri", 5, rccl.New}} {
		for _, integrity := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/integrity=%v", sh, integrity), func(t *testing.T) {
				n := sh.n
				h := newHarness(t, sh.system, n, sh.mk)
				if integrity {
					h.fab.SetIntegrity(fabric.Integrity{Enabled: true, MaxRetries: 2})
				}
				outs := map[string][]*device.Buffer{}
				for coll := range want[sh.String()] {
					outs[coll] = make([]*device.Buffer, n)
				}
				h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
					fill := func(count, j int) *device.Buffer {
						b := c.Device().MustMalloc(int64(count) * 4)
						for i := 0; i < count; i++ {
							b.SetFloat32(i, flatVal(r, i, j))
						}
						return b
					}
					red := c.Device().MustMalloc(reduceCount * 4)
					all := c.Device().MustMalloc(int64(n*block) * 4)
					rs := c.Device().MustMalloc(block * 4)
					for _, err := range []error{
						c.Reduce(fill(reduceCount, 0), red, reduceCount, ccl.Float32, ccl.Sum, root, s),
						c.AllGather(fill(block, 1), all, block, ccl.Float32, s),
						c.ReduceScatter(fill(n*block, 2), rs, block, ccl.Float32, ccl.Sum, s),
					} {
						if err != nil {
							t.Error(err)
							return
						}
					}
					s.Synchronize(p)
					if r == root {
						outs["reduce"][0] = red
					}
					outs["allgather"][r], outs["reducescatter"][r] = all, rs
				})
				for coll, bufs := range outs {
					sum := sha256.New()
					for _, b := range bufs {
						if b != nil {
							sum.Write(b.Bytes())
						}
					}
					if got := hex.EncodeToString(sum.Sum(nil)); got != want[sh.String()][coll] {
						t.Errorf("%s result sha256 %s, want %s", coll, got, want[sh.String()][coll])
					}
				}
			})
		}
	}
}

// TestInputReuseAfterSync pins why the flat Reduce and reduce-scatter move
// their bytes hop by hop on a faithful fabric too: a non-root rank of a
// Reduce, and any rank of a reduce-scatter, may end its call before a peer
// has reduced its input, and here each overwrites its send buffer as soon
// as its stream synchronizes, then calls again. An owner pass that read
// send after its rank's call ended would reduce the overwritten values.
func TestInputReuseAfterSync(t *testing.T) {
	const (
		root  = 3
		count = 1000
		calls = 3
	)
	for _, sh := range []ringShape{{"thetagpu", 12, nccl.New}, {"mri", 5, rccl.New}} {
		t.Run(sh.String(), func(t *testing.T) {
			n := sh.n
			h := newHarness(t, sh.system, n, sh.mk)
			h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
				send := c.Device().MustMalloc(int64(n*count) * 4)
				red := c.Device().MustMalloc(count * 4)
				rs := c.Device().MustMalloc(count * 4)
				for j := 0; j < calls; j++ {
					for i := 0; i < n*count; i++ {
						send.SetInt32(i, ringVal(r, i, j))
					}
					if err := c.Reduce(send, red, count, ccl.Int32, ccl.Sum, root, s); err != nil {
						t.Error(err)
						return
					}
					s.Synchronize(p)
					for i := 0; i < n*count; i++ {
						send.SetInt32(i, ringVal(r, i, j+calls))
					}
					if err := c.ReduceScatter(send, rs, count, ccl.Int32, ccl.Sum, s); err != nil {
						t.Error(err)
						return
					}
					s.Synchronize(p)
					for i := 0; i < n*count; i++ {
						send.SetInt32(i, -1)
					}
					for i := 0; i < count; i++ {
						if got, want := rs.Int32(i), ringSum(n, r*count+i, j+calls); got != want {
							t.Errorf("call %d rank %d reducescatter elem %d = %d, want %d", j, r, i, got, want)
							return
						}
						if got, want := red.Int32(i), ringSum(n, i, j); r == root && got != want {
							t.Errorf("call %d reduce elem %d = %d, want %d", j, i, got, want)
							return
						}
					}
				}
			})
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
//
// The out-of-place hierarchical rows check the leaf puts that send a rank's
// input straight from its send buffer. Their rule corrupts only node 0's
// intra-node links, where the mri shape's only reduce step is leaf rank 1's
// put to the leader; a put that skipped the corrupter would pass the flip
// on to the broadcast or delivery into rank 1 alone. The reduce-scatter
// row runs the whole payload as one chunk and flips every byte of the
// corrupted transfer, so the flip reaches every rank's block.
func TestReduceOnReceiveStagedUnderCorruption(t *testing.T) {
	first := fault.CorruptRule{Name: "flip", Count: 1}
	leaf := fault.CorruptRule{Name: "flip", Link: "intra", Nodes: []int{0}, Count: 1}
	leafAll := leaf
	leafAll.FlipBytes = 1 << 20
	cases := []struct {
		name  string
		shape ringShape
		algo  ccl.Algorithm
		coll  string // allreduce (in place) | allreduce-oop | reducescatter (out of place)
		rule  fault.CorruptRule
	}{
		{"ring", ringShape{"thetagpu", 5, nccl.New}, ccl.AlgoFlatRing, "allreduce", first},
		{"ring-mri", ringShape{"mri", 5, rccl.New}, ccl.AlgoFlatRing, "allreduce", first},
		{"hier", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoHierarchical, "allreduce", first},
		{"hier-oop", ringShape{"mri", 5, rccl.New}, ccl.AlgoHierarchical, "allreduce-oop", leaf},
		{"hier-reducescatter", ringShape{"mri", 5, rccl.New}, ccl.AlgoHierarchical, "reducescatter", leafAll},
	}
	for _, tc := range cases {
		for _, integrity := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/integrity=%v", tc.name, integrity), func(t *testing.T) {
				n, count, chunk := tc.shape.n, 4099, int64(1024)
				if tc.coll == "reducescatter" {
					count = 8
					chunk = int64(n*count) * 4
				}
				h := newHarness(t, tc.shape.system, n, tc.shape.mk)
				reg := metrics.NewRegistry()
				h.fab.SetMetrics(reg)
				h.fab.SetFaults(fault.NewPlan(1).AddCorruptRule(tc.rule))
				if integrity {
					h.fab.SetIntegrity(fabric.Integrity{Enabled: true, MaxRetries: 2})
				}
				bufs := make([]*device.Buffer, n)
				h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
					c.SetAlgorithm(tc.algo, chunk)
					in := count
					if tc.coll == "reducescatter" {
						in *= n
					}
					b := c.Device().MustMalloc(int64(in) * 4)
					for i := 0; i < in; i++ {
						b.SetInt32(i, ringVal(r, i, 0))
					}
					out := b
					var err error
					switch tc.coll {
					case "allreduce":
						err = c.AllReduce(b, b, count, ccl.Int32, ccl.Sum, s)
					case "allreduce-oop":
						out = c.Device().MustMalloc(int64(count) * 4)
						err = c.AllReduce(b, out, count, ccl.Int32, ccl.Sum, s)
					case "reducescatter":
						out = c.Device().MustMalloc(int64(count) * 4)
						err = c.ReduceScatter(b, out, count, ccl.Int32, ccl.Sum, s)
					}
					if err != nil {
						t.Errorf("%s: %v", tc.coll, err)
						return
					}
					s.Synchronize(p)
					bufs[r] = out
				})
				wrong := 0
				for r, b := range bufs {
					base := 0
					if tc.coll == "reducescatter" {
						base = r * count
					}
					for i := 0; i < count; i++ {
						if b.Int32(i) != ringSum(n, base+i, 0) {
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

// TestCompiledPlanVirtualTime pins the modeled completion time of three
// back-to-back calls of compiled plans, as TestRingScheduleVirtualTime does
// for rings: the lane helpers that carry a phase's sends must charge
// exactly what one spawned sender per (phase, destination, lane) charged,
// on the first call, which spawns the lanes, and on the calls that reuse
// them. The all-direct alltoall strategies cover one and several phases;
// the converted MSCCL allpairs allreduce covers staged, reducing moves.
// bytes is the alltoall block, or the allreduce payload.
func TestCompiledPlanVirtualTime(t *testing.T) {
	const ns = time.Nanosecond
	cases := []struct {
		name  string
		shape ringShape
		key   string // alltoall strategy; "msccl" runs the allpairs allreduce
		bytes int64
		want  [3]time.Duration
	}{
		{"alltoall-direct-2x8", ringShape{"thetagpu", 16, nccl.New}, "direct", 64 << 10,
			[3]time.Duration{178500 * ns, 357000 * ns, 535500 * ns}},
		{"alltoall-phased-8+4", ringShape{"thetagpu", 12, nccl.New}, "phased", 64 << 10,
			[3]time.Duration{102911 * ns, 205822 * ns, 308733 * ns}},
		{"alltoall-phased-4x2", ringShape{"mri", 8, rccl.New}, "phased", 64 << 10,
			[3]time.Duration{169345 * ns, 338690 * ns, 508035 * ns}},
		{"msccl-allpairs-allreduce", ringShape{"thetagpu", 8, nccl.New}, "msccl", 1 << 20,
			[3]time.Duration{34663 * ns, 69326 * ns, 103989 * ns}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.shape.n
			count := int(tc.bytes / 4)
			h := newHarness(t, tc.shape.system, n, tc.shape.mk)
			if tc.key == "msccl" {
				if err := h.comms[0].RegisterAlgo(ccl.AllPairsAllReduce(n, 0, 0)); err != nil {
					t.Fatal(err)
				}
			}
			var got [3]time.Duration // latest rank's completion per call
			h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
				size := tc.bytes
				if tc.key != "msccl" {
					size *= int64(n)
				}
				send, recv := c.Device().MustMalloc(size), c.Device().MustMalloc(size)
				var calls [3]*sim.Event
				for i := range calls {
					var err error
					if tc.key == "msccl" {
						err = c.AllReduce(send, recv, count, ccl.Float32, ccl.Sum, s)
					} else {
						err = c.Alltoall(send, recv, count, ccl.Float32, tc.key, s)
					}
					if err != nil {
						t.Error(err)
						return
					}
					calls[i] = s.Record()
				}
				for i, ev := range calls {
					ev.Wait(p)
					if now := p.Now(); now > got[i] {
						got[i] = now
					}
				}
			})
			if got != tc.want {
				t.Errorf("modeled completion times %v (%d, %d, %d ns), want %v",
					got, int64(got[0]), int64(got[1]), int64(got[2]), tc.want)
			}
		})
	}
}
