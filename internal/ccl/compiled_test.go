package ccl_test

import (
	"bytes"
	"testing"

	"mpixccl/internal/ccl"
	"mpixccl/internal/ccl/nccl"
	"mpixccl/internal/ccl/rccl"
	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// mkFor picks the backend that can drive the system's accelerators.
func mkFor(system string) func(*fabric.Fabric, []*device.Device) ([]*ccl.Comm, error) {
	if system == "mri" {
		return rccl.New
	}
	return nccl.New
}

// fillBytes writes rank r's deterministic payload: pure data movement
// (no reductions), so bytewise comparison against the reference shuffle
// is exact for every plan.
func fillBytes(buf *device.Buffer, r int) {
	b := buf.Bytes()
	for i := range b {
		b[i] = byte((r*31 + i*7) % 251)
	}
}

// compiledDtypes is the 6-datatype sweep of the property tests.
var compiledDtypes = []ccl.Datatype{
	ccl.Int8, ccl.Int32, ccl.Int64, ccl.Float16, ccl.Float32, ccl.Float64,
}

// newPermHarness builds a harness whose rank→device mapping is shuffled:
// rank r sits on device perm[r], so node groups are discontiguous rank
// sets — the compiler's groupings must not assume rank order.
func newPermHarness(t *testing.T, system string, nranks int, perm []int) *harness {
	t.Helper()
	k := sim.NewKernel()
	perNode := map[string]int{"thetagpu": 8, "mri": 2}[system]
	nodes := (nranks + perNode - 1) / perNode
	sys, err := topology.Preset(k, system, nodes)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.New(k, sys)
	devs := make([]*device.Device, nranks)
	for r := range devs {
		devs[r] = sys.Devices()[perm[r]]
	}
	comms, err := mkFor(system)(fab, devs)
	if err != nil {
		t.Fatal(err)
	}
	return &harness{k: k, sys: sys, fab: fab, comms: comms}
}

// compiledShapes enumerates the topologies the plan sweep runs on:
// multi-node even, multi-node uneven, single node (every hierarchy must
// degenerate), 4-node (phased permutation schedules), and a shuffled
// rank→node order.
type compiledShape struct {
	name   string
	system string
	nranks int
	perm   []int // nil = identity
}

func compiledShapeList() []compiledShape {
	return []compiledShape{
		{name: "2x8", system: "thetagpu", nranks: 16},
		{name: "8+4", system: "thetagpu", nranks: 12},
		{name: "1node", system: "thetagpu", nranks: 8},
		{name: "1node-odd", system: "thetagpu", nranks: 3},
		{name: "4x2", system: "mri", nranks: 8},
		{name: "4x2-shuffled", system: "mri", nranks: 8,
			perm: []int{5, 0, 3, 6, 1, 4, 7, 2}},
	}
}

func (sh compiledShape) harness(t *testing.T) *harness {
	if sh.perm != nil {
		return newPermHarness(t, sh.system, sh.nranks, sh.perm)
	}
	return newHarness(t, sh.system, sh.nranks, mkFor(sh.system))
}

// planKeysFor collects the candidate keys plus the search entry points.
func planKeysFor(t *testing.T, sh compiledShape, op string) []string {
	h := sh.harness(t)
	keys := append([]string{"", "auto"}, h.comms[0].PlanKeys(op)...)
	return keys
}

// TestCompiledAlltoall: every plan strategy must produce the exact MPI
// alltoall result (block q of rank r's send buffer lands at block r of
// rank q's recv buffer) across datatypes and uneven counts.
func TestCompiledAlltoall(t *testing.T) {
	for _, sh := range compiledShapeList() {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			for _, key := range planKeysFor(t, sh, "alltoall") {
				for _, dt := range compiledDtypes {
					for _, count := range []int{1, 7, 129} {
						runCompiledAlltoall(t, sh, key, dt, count)
					}
				}
			}
		})
	}
}

func runCompiledAlltoall(t *testing.T, sh compiledShape, key string, dt ccl.Datatype, count int) {
	t.Helper()
	h := sh.harness(t)
	n := sh.nranks
	blk := int64(count) * int64(dt.Size())
	sends := make([][]byte, n)
	recvs := make([][]byte, n)
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		send := c.Device().MustMalloc(blk * int64(n))
		recv := c.Device().MustMalloc(blk * int64(n))
		fillBytes(send, r)
		sends[r] = append([]byte(nil), send.Bytes()...)
		if err := c.Alltoall(send, recv, count, dt, key, s); err != nil {
			t.Errorf("alltoall key=%q: %v", key, err)
			return
		}
		s.Synchronize(p)
		recvs[r] = append([]byte(nil), recv.Bytes()...)
		send.Free()
		recv.Free()
	})
	for r := 0; r < n; r++ {
		for q := 0; q < n; q++ {
			want := sends[q][int64(r)*blk : int64(r+1)*blk]
			got := recvs[r][int64(q)*blk : int64(q+1)*blk]
			if !bytes.Equal(want, got) {
				t.Fatalf("%s key=%q dt=%v count=%d: rank %d block %d wrong",
					sh.name, key, dt, count, r, q)
			}
		}
	}
}

// TestCompiledScatterGather: every plan strategy of the rooted fans must
// match MPI scatter/gather semantics, with roots on and off node 0.
func TestCompiledScatterGather(t *testing.T) {
	for _, sh := range compiledShapeList() {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			roots := []int{0, sh.nranks - 1}
			for _, op := range []string{"scatter", "gather"} {
				for _, key := range planKeysFor(t, sh, op) {
					for _, dt := range compiledDtypes {
						for _, root := range roots {
							runCompiledRooted(t, sh, op, key, dt, 37, root)
						}
					}
				}
			}
		})
	}
}

func runCompiledRooted(t *testing.T, sh compiledShape, op, key string, dt ccl.Datatype, count, root int) {
	t.Helper()
	h := sh.harness(t)
	n := sh.nranks
	blk := int64(count) * int64(dt.Size())
	rootBuf := make([]byte, blk*int64(n))
	got := make([][]byte, n)
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		var err error
		switch op {
		case "scatter":
			var send *device.Buffer
			if r == root {
				send = c.Device().MustMalloc(blk * int64(n))
				fillBytes(send, r)
				copy(rootBuf, send.Bytes())
			}
			recv := c.Device().MustMalloc(blk)
			err = c.Scatter(send, recv, count, dt, root, key, s)
			if err == nil {
				s.Synchronize(p)
				got[r] = append([]byte(nil), recv.Bytes()...)
			}
		case "gather":
			send := c.Device().MustMalloc(blk)
			fillBytes(send, r)
			got[r] = append([]byte(nil), send.Bytes()...)
			var recv *device.Buffer
			if r == root {
				recv = c.Device().MustMalloc(blk * int64(n))
			}
			err = c.Gather(send, recv, count, dt, root, key, s)
			if err == nil {
				s.Synchronize(p)
				if r == root {
					copy(rootBuf, recv.Bytes())
				}
			}
		}
		if err != nil {
			t.Errorf("%s key=%q: %v", op, key, err)
		}
	})
	for r := 0; r < n; r++ {
		seg := rootBuf[int64(r)*blk : int64(r+1)*blk]
		if op == "scatter" {
			if !bytes.Equal(got[r], seg) {
				t.Fatalf("%s/%s key=%q dt=%v root=%d: rank %d block wrong", sh.name, op, key, dt, root, r)
			}
		} else {
			if !bytes.Equal(seg, got[r]) {
				t.Fatalf("%s/%s key=%q dt=%v root=%d: root's block %d wrong", sh.name, op, key, dt, root, r)
			}
		}
	}
}

// TestCompiledAlltoallv: uneven per-pair counts (including zero blocks)
// through both pairing schedules, against the reference exchange.
func TestCompiledAlltoallv(t *testing.T) {
	for _, sh := range compiledShapeList() {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			for _, key := range []string{"", "direct", "phased"} {
				for _, dt := range []ccl.Datatype{ccl.Int8, ccl.Float32, ccl.Float64} {
					runCompiledAlltoallv(t, sh, key, dt)
				}
			}
		})
	}
}

func runCompiledAlltoallv(t *testing.T, sh compiledShape, key string, dt ccl.Datatype) {
	t.Helper()
	h := sh.harness(t)
	n := sh.nranks
	esz := int64(dt.Size())
	// cnt[r][q]: elements r sends to q — uneven, with zeros sprinkled in.
	cnt := make([][]int, n)
	for r := range cnt {
		cnt[r] = make([]int, n)
		for q := range cnt[r] {
			cnt[r][q] = (r + 2*q) % 5 // 0..4 elements
		}
	}
	packed := func(row []int) ([]int, int) {
		d := make([]int, len(row))
		off := 0
		for i, c := range row {
			d[i] = off
			off += c
		}
		return d, off
	}
	sends := make([][]byte, n)
	recvs := make([][]byte, n)
	sdis := make([][]int, n)
	rdis := make([][]int, n)
	rcnt := make([][]int, n)
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		scounts := cnt[r]
		rcounts := make([]int, n)
		for q := 0; q < n; q++ {
			rcounts[q] = cnt[q][r]
		}
		sdispls, stot := packed(scounts)
		rdispls, rtot := packed(rcounts)
		sdis[r], rdis[r], rcnt[r] = sdispls, rdispls, rcounts
		send := c.Device().MustMalloc(max64(int64(stot)*esz, 1))
		recv := c.Device().MustMalloc(max64(int64(rtot)*esz, 1))
		fillBytes(send, r)
		sends[r] = append([]byte(nil), send.Bytes()...)
		if err := c.Alltoallv(send, scounts, sdispls, recv, rcounts, rdispls, dt, key, s); err != nil {
			t.Errorf("alltoallv key=%q: %v", key, err)
			return
		}
		s.Synchronize(p)
		recvs[r] = append([]byte(nil), recv.Bytes()...)
		send.Free()
		recv.Free()
	})
	for r := 0; r < n; r++ {
		for q := 0; q < n; q++ {
			ln := int64(cnt[q][r]) * esz
			if ln == 0 {
				continue
			}
			so := int64(sdis[q][r]) * esz
			ro := int64(rdis[r][q]) * esz
			if !bytes.Equal(sends[q][so:so+ln], recvs[r][ro:ro+ln]) {
				t.Fatalf("%s key=%q dt=%v: %d->%d block wrong", sh.name, key, dt, q, r)
			}
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TestCompiledPlanErrors: malformed or inapplicable keys surface as
// argument errors, not panics.
func TestCompiledPlanErrors(t *testing.T) {
	h := newHarness(t, "thetagpu", 4, nccl.New)
	h.runRanks(t, func(r int, c *ccl.Comm, s *device.Stream, p *sim.Proc) {
		send := c.Device().MustMalloc(4 * 16)
		recv := c.Device().MustMalloc(4 * 16)
		for _, key := range []string{"ring", "staged:intra=flat,stripe=1,depth=1", "native:hier"} {
			if err := c.Alltoall(send, recv, 4, ccl.Float32, key, s); err == nil {
				t.Errorf("alltoall key=%q: want error", key)
			}
		}
	})
}

// TestCompiledPlanFor pins the search outcomes the cost model promises:
// phased on a ≥3-node alltoall at large sizes, direct on one node.
func TestCompiledPlanFor(t *testing.T) {
	h := newHarness(t, "mri", 8, rccl.New) // 4 nodes × 2
	key, cost, err := h.comms[0].PlanFor("alltoall", 4<<20, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatalf("non-positive cost %g", cost)
	}
	if key != "phased" && !hasPrefix(key, "phased:") {
		t.Fatalf("4-node 4MB alltoall search picked %q, want phased", key)
	}
	h1 := newHarness(t, "thetagpu", 8, nccl.New) // 1 node
	key1, _, err := h1.comms[0].PlanFor("alltoall", 4<<20, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if key1 != "direct" {
		t.Fatalf("1-node alltoall search picked %q, want direct", key1)
	}
}

func hasPrefix(s, p string) bool {
	return len(s) >= len(p) && s[:len(p)] == p
}
