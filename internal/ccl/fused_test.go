package ccl_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/ccl/nccl"
	"mpixccl/internal/ccl/rccl"
	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
)

// On a faithful op the group ring's and the group tree's hops move no
// bytes: the owner of each ring segment reduces it in one pass over every
// member's buffer and writes the result to all of them (and, in the
// hierarchical allreduce, to every non-leader), and the root of each tree
// fan-in reduces every member's input in one pass. With integrity on (and
// no corrupter) the same schedules run hop by hop, so these tests run each
// call both ways and require the same bytes and the same modeled times.

type fusedCase struct {
	name  string
	shape ringShape
	algo  ccl.Algorithm
	chunk int // hierarchical pipeline chunk, in elements, of the short calls
}

var fusedCases = []fusedCase{
	{"ring/2", ringShape{"thetagpu", 2, nccl.New}, ccl.AlgoFlatRing, 0},
	{"ring/3", ringShape{"thetagpu", 3, nccl.New}, ccl.AlgoFlatRing, 0},
	{"ring/5", ringShape{"thetagpu", 5, nccl.New}, ccl.AlgoFlatRing, 0},
	{"ring/8", ringShape{"thetagpu", 8, nccl.New}, ccl.AlgoFlatRing, 0},
	{"ring/12-2nodes", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoFlatRing, 0},
	// Leader rings of 2 and 3 members on chunks of 1 and 2 elements: every
	// chunk leaves a segment empty. mri/5 has a one-rank node.
	{"hier/2nodes", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoHierarchical, 1},
	{"hier/3nodes", ringShape{"mri", 5, rccl.New}, ccl.AlgoHierarchical, 2},
	// The flat tree's fan-in over one node's ranks (full and ragged
	// binomial trees) and over two nodes.
	{"tree/5", ringShape{"thetagpu", 5, nccl.New}, ccl.AlgoTree, 0},
	{"tree/8", ringShape{"thetagpu", 8, nccl.New}, ccl.AlgoTree, 0},
	{"tree/12-2nodes", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoTree, 0},
}

var (
	fusedTypes = []ccl.Datatype{ccl.Float32, ccl.Float64, ccl.Float16, ccl.Int32, ccl.Int64, ccl.Int8}
	fusedOps   = []ccl.RedOp{ccl.Sum, ccl.Prod, ccl.Max, ccl.Min}
)

// mix is splitmix64's finalizer: a well-spread 64-bit hash of x.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// fusedFill writes rank r's input of op j: signed zeros, NaNs with
// distinct payloads and infinities among finite values whose magnitudes
// span many binades (near one for products, so they stay finite), so that
// a change of operand order or association changes the result's bits.
func fusedFill(b *device.Buffer, dt ccl.Datatype, op ccl.RedOp, count, r, j int) {
	out := b.Bytes()
	for i := 0; i < count; i++ {
		h := mix(uint64(r)<<48 ^ uint64(j)<<32 ^ uint64(i))
		sign, kind, frac := h>>63, h>>56&15, h&(1<<52-1)
		exp := int(h>>32&63) - 31 // 2^-31 .. 2^32
		if op == ccl.Prod {
			exp = int(h>>32&1) - 1 // [0.5, 2)
		}
		switch dt {
		case ccl.Float32:
			v := math.Float32bits(float32(math.Ldexp(1+float64(frac)/(1<<52), exp)))
			switch kind {
			case 0:
				v = 0
			case 1:
				v = 0x7fc00000 | uint32(frac)&0x3fffff // quiet NaN, its own payload
			case 2:
				v = 0x7f800000
			}
			binary.LittleEndian.PutUint32(out[4*i:], v|uint32(sign)<<31)
		case ccl.Float64:
			v := math.Float64bits(math.Ldexp(1+float64(frac)/(1<<52), exp))
			switch kind {
			case 0:
				v = 0
			case 1:
				v = 0x7ff8000000000000 | frac&(1<<51-1)
			case 2:
				v = 0x7ff0000000000000
			}
			binary.LittleEndian.PutUint64(out[8*i:], v|sign<<63)
		case ccl.Float16:
			e := uint16(15 + exp%8) // 2^-7 .. 2^7
			if op == ccl.Prod {
				e = uint16(15 + exp)
			}
			v := e<<10 | uint16(frac)&0x3ff
			switch kind {
			case 0:
				v = 0
			case 1:
				v = 0x7e00 | uint16(frac)&0x1ff
			}
			binary.LittleEndian.PutUint16(out[2*i:], v|uint16(sign)<<15)
		case ccl.Int32:
			v := int32(h>>8) >> 10
			if op == ccl.Prod {
				v = int32(h>>8)>>28 | 1
			}
			binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
		case ccl.Int64:
			v := int64(h) >> 12
			if op == ccl.Prod {
				v = int64(h)>>60 | 1
			}
			binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
		case ccl.Int8:
			out[i] = byte(h >> 40)
		}
	}
}

// fusedRun is one run of a case: every rank's result digest and modeled
// completion time per call, in issue order.
type fusedRun struct {
	names []string
	sums  [][][sha256.Size]byte // [rank][call]
	times [][]time.Duration     // [rank][call]
}

// runFusedCase queues, per stream, every datatype × op at a short count
// (not divisible by the ring size) in place and out of place, a
// multi-block call per datatype and a float32 and a float64 sum whose
// segments end in a vector tail, then the same short and multi-block calls
// as hierarchical reduce-scatters (in place, recv being the rank's block
// of send, and out of place; a shape without a node hierarchy runs the
// ring), then runs two waves of a persistent handle and one of a
// partitioned handle whose partitions are written and marked ready one by
// one. integrity forces the hop-by-hop path.
func runFusedCase(t *testing.T, fc fusedCase, integrity bool) fusedRun {
	t.Helper()
	n := fc.shape.n
	h := newHarness(t, fc.shape.system, n, fc.shape.mk)
	if integrity {
		h.fab.SetIntegrity(fabric.Integrity{Enabled: true, MaxRetries: 2})
	}
	run := fusedRun{sums: make([][][sha256.Size]byte, n), times: make([][]time.Duration, n)}
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		type call struct {
			name string
			out  *device.Buffer
			n    int64
			done *sim.Event
		}
		var calls []call
		issue := func(dt ccl.Datatype, op ccl.RedOp, count int, inPlace bool, chunk int) {
			j := len(calls)
			bytes := int64(count) * int64(dt.Size())
			send := c.Device().MustMalloc(bytes)
			fusedFill(send, dt, op, count, r, j)
			recv := send
			if !inPlace {
				recv = c.Device().MustMalloc(bytes)
			}
			c.SetAlgorithm(fc.algo, int64(chunk*dt.Size()))
			if err := c.AllReduce(send, recv, count, dt, op, s); err != nil {
				t.Errorf("allreduce: %v", err)
				return
			}
			name := fmt.Sprintf("%v/%v/count=%d/inplace=%v", dt, op, count, inPlace)
			calls = append(calls, call{name, recv, bytes, s.Record()})
		}
		short := 3*n + 1
		for ti, dt := range fusedTypes {
			for _, op := range fusedOps {
				issue(dt, op, short, false, fc.chunk)
				issue(dt, op, short, true, fc.chunk)
			}
			// Segments over 80 KiB: several blocks of the owner's pass.
			issue(dt, fusedOps[ti%len(fusedOps)], n*(80<<10)/dt.Size()+3, ti%2 == 1, 0)
		}
		// Flat-ring segments of 32·40+7 elements: the owner pass's vector
		// body and a 7-element tail, for both float widths at every m.
		issue(ccl.Float32, ccl.Sum, n*(32*40+7), true, 0)
		issue(ccl.Float64, ccl.Sum, n*(32*40+7), false, 0)
		reduceScatter := func(dt ccl.Datatype, op ccl.RedOp, count int, inPlace bool, chunk int) {
			j := len(calls)
			blk := int64(count) * int64(dt.Size())
			send := c.Device().MustMalloc(blk * int64(n))
			fusedFill(send, dt, op, count*n, r, j)
			recv := send.Slice(int64(r)*blk, blk)
			if !inPlace {
				recv = c.Device().MustMalloc(blk)
			}
			c.SetAlgorithm(ccl.AlgoHierarchical, int64(chunk*dt.Size()))
			if err := c.ReduceScatter(send, recv, count, dt, op, s); err != nil {
				t.Errorf("reducescatter: %v", err)
				return
			}
			name := fmt.Sprintf("reducescatter/%v/%v/count=%d/inplace=%v", dt, op, count, inPlace)
			calls = append(calls, call{name, recv, blk, s.Record()})
		}
		for ti, dt := range fusedTypes {
			for _, op := range fusedOps {
				reduceScatter(dt, op, 3, false, 2*n+1)
				reduceScatter(dt, op, 3, true, 2*n+1)
			}
			// A payload over 64 KiB in one chunk: several blocks of the
			// fan-in pass.
			reduceScatter(dt, fusedOps[ti%len(fusedOps)], (80<<10)/(n*dt.Size())+3, ti%2 == 0, 0)
		}
		sums := make([][sha256.Size]byte, 0, len(calls)+3)
		times := make([]time.Duration, 0, len(calls)+3)
		for _, cl := range calls {
			cl.done.Wait(p)
			sums = append(sums, sha256.Sum256(cl.out.Bytes()[:cl.n]))
			times = append(times, p.Now())
			if r == 0 {
				run.names = append(run.names, cl.name)
			}
		}
		// A persistent handle, two waves with fresh inputs.
		count := 5*n + 2
		buf := c.Device().MustMalloc(int64(count) * 4)
		c.SetAlgorithm(fc.algo, int64(fc.chunk*4))
		pc, err := c.AllReduceInit(buf, buf, count, ccl.Float32, ccl.Sum, s)
		if err != nil {
			t.Errorf("allreduce init: %v", err)
			return
		}
		for w := 0; w < 2; w++ {
			fusedFill(buf, ccl.Float32, ccl.Sum, count, r, 1000+w)
			if err := pc.Do(p); err != nil {
				t.Errorf("persistent wave %d: %v", w, err)
				return
			}
			sums = append(sums, sha256.Sum256(buf.Bytes()))
			times = append(times, p.Now())
			if r == 0 {
				run.names = append(run.names, fmt.Sprintf("persistent/wave=%d", w))
			}
		}
		pc.Free()
		// A partitioned handle, its partitions marked ready in reverse.
		const parts = 3
		pc, err = c.AllReduceInitPartitioned(buf, buf, count, ccl.Float32, ccl.Sum, parts, s)
		if err != nil {
			t.Errorf("partitioned allreduce init: %v", err)
			return
		}
		// Partition k's input is written only just before Pready(k), later
		// on higher ranks, so a pass that reads a member's partition before
		// it is ready reads the last wave's result instead.
		in := c.Device().MustMalloc(int64(count) * 4)
		fusedFill(in, ccl.Float32, ccl.Sum, count, r, 2000)
		if err := pc.Start(); err != nil {
			t.Errorf("partitioned start: %v", err)
			return
		}
		pe := (count + parts - 1) / parts
		for k := parts - 1; k >= 0; k-- {
			p.Sleep(time.Duration(1+r) * time.Microsecond)
			lo, hi := 4*k*pe, 4*min((k+1)*pe, count)
			copy(buf.Bytes()[lo:hi], in.Bytes()[lo:hi])
			pc.Pready(k)
		}
		if err := pc.Wait(p); err != nil {
			t.Errorf("partitioned wave: %v", err)
			return
		}
		sums = append(sums, sha256.Sum256(buf.Bytes()))
		times = append(times, p.Now())
		if r == 0 {
			run.names = append(run.names, "persistent/partitioned")
		}
		pc.Free()
		run.sums[r], run.times[r] = sums, times
	})
	return run
}

// TestFusedRingMatchesPerHop requires the owner-computes ring and tree
// fan-in (faithful fabric) and the hop-by-hop schedules (integrity on) to
// leave identical bytes in every rank's recv buffer and finish every call
// at the same modeled instant on every rank, for flat and leader rings,
// flat and intra-node trees, every datatype and op. Every allreduce
// leaves the same bytes on every rank.
func TestFusedRingMatchesPerHop(t *testing.T) {
	for _, fc := range fusedCases {
		t.Run(fc.name, func(t *testing.T) {
			fused := runFusedCase(t, fc, false)
			hop := runFusedCase(t, fc, true)
			if t.Failed() {
				return
			}
			for r := range fused.sums {
				for j, name := range fused.names {
					if !strings.HasPrefix(name, "reducescatter/") && fused.sums[r][j] != fused.sums[0][j] {
						t.Errorf("%s: rank %d's result differs from rank 0's", name, r)
					}
					if fused.sums[r][j] != hop.sums[r][j] {
						t.Errorf("%s: rank %d's result differs from the hop-by-hop ring's", name, r)
					}
					if fused.times[r][j] != hop.times[r][j] {
						t.Errorf("%s: rank %d finishes at %v, hop by hop at %v", name, r, fused.times[r][j], hop.times[r][j])
					}
				}
			}
		})
	}
}

// TestByteRegimeFixedPerOp toggles integrity every 700 ns of virtual time
// while ring, hierarchical and tree allreduces and hierarchical
// reduce-scatters are queued on every stream,
// and the ranks enter each op at staggered instants, so the fabric changes
// regime between one rank's entry into an op and the next's, and in the
// middle of ops. Each op keeps the regime its first rank
// found, so every sum is exact.
func TestByteRegimeFixedPerOp(t *testing.T) {
	for _, sh := range []ringShape{{"thetagpu", 5, nccl.New}, {"mri", 5, rccl.New}} {
		t.Run(sh.String(), func(t *testing.T) {
			n := sh.n
			h := newHarness(t, sh.system, n, sh.mk)
			type check struct {
				buf   *device.Buffer
				off   int // the element index of buf[0] in the reduction
				count int
				j     int
			}
			checks := make([][]check, n)
			finished := 0
			h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
				if r == 0 {
					p.Kernel().Spawn("toggle", func(tp *sim.Proc) {
						for i := 0; finished < n; i++ {
							tp.Sleep(700 * time.Nanosecond)
							h.fab.SetIntegrity(fabric.Integrity{Enabled: i%2 == 0, MaxRetries: 2})
						}
						h.fab.SetIntegrity(fabric.Integrity{})
					})
				}
				// Rank r's stream idles r·300 ns before each op, so the ranks
				// enter it at staggered instants, across toggles.
				stagger := func(sp *sim.Proc) { sp.Sleep(time.Duration(r) * 300 * time.Nanosecond) }
				j := 0
				for round := 0; round < 4; round++ {
					for _, algo := range []ccl.Algorithm{ccl.AlgoFlatRing, ccl.AlgoHierarchical, ccl.AlgoTree} {
						c.SetAlgorithm(algo, 256)
						for _, count := range []int{2*n + 1, 3001} {
							b := c.Device().MustMalloc(int64(count) * 4)
							for i := 0; i < count; i++ {
								b.SetInt32(i, ringVal(r, i, j))
							}
							s.Enqueue(stagger)
							if err := c.AllReduce(b, b, count, ccl.Int32, ccl.Sum, s); err != nil {
								t.Errorf("allreduce: %v", err)
								return
							}
							checks[r] = append(checks[r], check{b, 0, count, j})
							j++
						}
					}
					// Rank r's block of the reduction of every rank's send.
					c.SetAlgorithm(ccl.AlgoHierarchical, 256)
					for _, count := range []int{3, 601} {
						send := c.Device().MustMalloc(int64(count*n) * 4)
						for i := 0; i < count*n; i++ {
							send.SetInt32(i, ringVal(r, i, j))
						}
						recv := c.Device().MustMalloc(int64(count) * 4)
						s.Enqueue(stagger)
						if err := c.ReduceScatter(send, recv, count, ccl.Int32, ccl.Sum, s); err != nil {
							t.Errorf("reducescatter: %v", err)
							return
						}
						checks[r] = append(checks[r], check{recv, r * count, count, j})
						j++
					}
				}
				s.Synchronize(p)
				finished++
			})
			for r, cs := range checks {
				for _, ck := range cs {
					for i := 0; i < ck.count; i++ {
						if got, want := ck.buf.Int32(i), ringSum(n, ck.off+i, ck.j); got != want {
							t.Fatalf("op %d (count %d) rank %d elem %d = %d, want %d", ck.j, ck.count, r, i, got, want)
						}
					}
				}
			}
		})
	}
}

// TestFusedRingConcurrentWorlds runs the owner-computes ring in two flat
// worlds and the hierarchical allreduce (the tree fan-in and the leader
// ring's owner writing every rank) in a third, all at once on separate
// goroutines. Under the race detector it fails if the passes' scratch is
// shared beyond one communicator.
func TestFusedRingConcurrentWorlds(t *testing.T) {
	worlds := []struct {
		name  string
		shape ringShape
		algo  ccl.Algorithm
	}{
		{"world0", ringShape{"thetagpu", 4, nccl.New}, ccl.AlgoFlatRing},
		{"world1", ringShape{"thetagpu", 4, nccl.New}, ccl.AlgoFlatRing},
		{"hier", ringShape{"thetagpu", 12, nccl.New}, ccl.AlgoHierarchical},
	}
	for w, wc := range worlds {
		t.Run(wc.name, func(t *testing.T) {
			t.Parallel()
			const count = 50000
			n := wc.shape.n
			h := newHarness(t, wc.shape.system, n, wc.shape.mk)
			bufs := make([]*device.Buffer, n)
			h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
				c.SetAlgorithm(wc.algo, 0)
				b := c.Device().MustMalloc(count * 4)
				for j := 0; j < 3; j++ {
					for i := 0; i < count; i++ {
						b.SetInt32(i, ringVal(r, i, j+w))
					}
					if err := c.AllReduce(b, b, count, ccl.Int32, ccl.Sum, s); err != nil {
						t.Errorf("allreduce: %v", err)
						return
					}
					s.Synchronize(p)
				}
				bufs[r] = b
			})
			for r, b := range bufs {
				for i := 0; i < count; i++ {
					if got, want := b.Int32(i), ringSum(n, i, 2+w); got != want {
						t.Fatalf("%s rank %d elem %d = %d, want %d", wc.name, r, i, got, want)
					}
				}
			}
		})
	}
}
