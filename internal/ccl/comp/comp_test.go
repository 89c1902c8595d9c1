package comp

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// thetaTopo builds an m-node × g-GPU ThetaGPU-like topology (the Fig6
// machine the benchmarks use): NVLink3 intra, IBHDR inter.
func thetaTopo(m, g int) *Topo {
	nodeOf := make([]int, m*g)
	for r := range nodeOf {
		nodeOf[r] = r / g
	}
	return &Topo{
		NodeOf: nodeOf, Nodes: m,
		IntraAlpha: 1800e-9, IntraChanBW: 11.42e9, IntraDirCh: 12, IntraTotalCh: 16,
		InterAlpha: 2500e-9, InterChanBW: 4.55e9, InterDirCh: 4, InterTotalCh: 6,
		Launch: 20e-6, Step: 1200e-9, InterPenalty: 1.0, Channels: 12,
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	keys := []string{
		"direct",
		"direct:chunk=1048576",
		"phased",
		"phased:chunk=2097152",
		"staged:intra=flat,stripe=2,depth=4",
		"staged:intra=tree,stripe=1,depth=1",
		"staged:intra=flat,stripe=4,depth=2,chunk=524288",
	}
	for _, k := range keys {
		s, err := ParseKey(k)
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", k, err)
		}
		if got := s.Key(); got != k {
			t.Fatalf("round trip %q -> %q", k, got)
		}
	}
	bad := []string{
		"", "ring", "direct:stripe=2", "staged:intra=star,stripe=1,depth=1",
		"staged:intra=tree,stripe=1,depth=2", "native:ring", "phased:chunk=0",
		"phased:chunk=x", "native:hier", "native:flat",
	}
	for _, k := range bad {
		if _, err := ParseKey(k); err == nil {
			t.Fatalf("ParseKey(%q): want error", k)
		}
	}
}

func TestValidKey(t *testing.T) {
	cases := []struct {
		op, key string
		ok      bool
	}{
		{"alltoall", "direct", true},
		{"alltoall", "phased:chunk=1048576", true},
		{"alltoall", "staged:intra=flat,stripe=1,depth=1", false},
		{"alltoall", "native:hier", false},
		{"alltoallv", "phased", true},
		{"scatter", "staged:intra=tree,stripe=2,depth=1", true},
		{"gather", "staged:intra=flat,stripe=4,depth=4", true},
		{"gather", "native:flat", false},
		{"gather", "phased", false},
		{"scatter", "phased:chunk=1048576", false},
		{"allreduce", "native:hier", false},
		{"allreduce", "direct", false},
		{"bcast", "native:flat", false},
		{"frobnicate", "direct", false},
	}
	for _, c := range cases {
		err := ValidKey(c.op, c.key)
		if (err == nil) != c.ok {
			t.Fatalf("ValidKey(%s, %s) = %v, want ok=%v", c.op, c.key, err, c.ok)
		}
	}
}

// byteMap flattens a plan into the set of (src rank/buf/off -> dst
// rank/buf/off) byte mappings, collapsing scratch relays: a byte is traced
// from its original user-buffer source through any scratch hops to its
// final user-buffer destination, phase order respected.
func byteMap(t *testing.T, p *Plan) map[string]string {
	t.Helper()
	// owner[rank][scratchOff] = original source coordinate.
	type coord struct {
		rank int
		buf  BufRole
		off  int64
	}
	scratch := map[coord]coord{} // scratch byte -> origin byte
	out := map[string]string{}
	key := func(c coord) string { return fmt.Sprintf("r%d/b%d/%d", c.rank, c.buf, c.off) }
	for _, ph := range p.Phases {
		for _, m := range ph.Moves {
			for b := int64(0); b < m.Bytes; b++ {
				src := coord{m.From, m.SrcBuf, m.SrcOff + b}
				if m.SrcBuf == ScratchBuf {
					if o, ok := scratch[src]; ok {
						src = o
					} else {
						t.Fatalf("move reads scratch byte %v before any write", src)
					}
				}
				dst := coord{m.To, m.DstBuf, m.DstOff + b}
				if m.DstBuf == ScratchBuf {
					scratch[dst] = src
				} else {
					out[key(dst)] = key(src)
				}
			}
		}
	}
	return out
}

// TestLoweringsEquivalent: every strategy of an op induces the same
// user-buffer byte mapping as the direct lowering, on several shapes
// including 1-node degeneration and a root off rank 0.
func TestLoweringsEquivalent(t *testing.T) {
	shapes := []struct {
		name string
		topo *Topo
	}{
		{"1node", thetaTopo(1, 4)},
		{"2x2", thetaTopo(2, 2)},
		{"4x3", thetaTopo(4, 3)},
	}
	const blk = 16
	for _, sh := range shapes {
		for _, op := range []string{"alltoall", "scatter", "gather"} {
			root := 0
			if sh.topo.Ranks() > 2 {
				root = 2 // off node 0 on the 4x3 shape
			}
			shape := Shape{BlockBytes: blk, Root: root}
			var ref map[string]string
			for _, s := range Candidates(op, sh.topo) {
				p, err := Lower(op, sh.topo, shape, s)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", sh.name, op, s.Key(), err)
				}
				got := byteMap(t, p)
				if ref == nil {
					ref = got
					if len(ref) == 0 {
						t.Fatalf("%s/%s/%s: empty byte map", sh.name, op, s.Key())
					}
					continue
				}
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("%s/%s: strategy %s maps bytes differently from direct (%d vs %d entries)",
						sh.name, op, s.Key(), len(got), len(ref))
				}
			}
		}
	}
}

func TestScheduleLevelsAndScratch(t *testing.T) {
	topo := thetaTopo(2, 2)
	p, err := Lower("scatter", topo, Shape{BlockBytes: 64, Root: 0},
		Strategy{Name: "staged", Intra: "flat", Stripe: 1, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Phases) != 2 {
		t.Fatalf("staged scatter depth=1: want 2 phases, got %d", len(p.Phases))
	}
	if p.Scratch == nil || p.Scratch[2] != 2*64 {
		t.Fatalf("leader rank 2 wants 128B scratch, got %v", p.Scratch)
	}
	if p.Scratch[0] != 0 || p.Scratch[1] != 0 {
		t.Fatalf("non-leader scratch should be 0, got %v", p.Scratch)
	}
}

func TestRankProgramSplit(t *testing.T) {
	topo := thetaTopo(2, 2)
	p, err := Lower("alltoall", topo, Shape{BlockBytes: 8}, Strategy{Name: "direct"})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		rp := p.Rank(r)
		if len(rp.Phases) != 1 {
			t.Fatalf("rank %d: want 1 phase, got %d", r, len(rp.Phases))
		}
		ph := rp.Phases[0]
		if len(ph.Outs) != 4 || len(ph.Ins) != 3 || len(ph.Dests) != 3 {
			t.Fatalf("rank %d: outs=%d ins=%d dests=%d, want 4/3/3",
				r, len(ph.Outs), len(ph.Ins), len(ph.Dests))
		}
		for _, d := range ph.Dests {
			if d.To == r {
				t.Fatalf("rank %d: self move leaked into Dests", r)
			}
		}
	}
}

func TestPairPhaseCoversAllPairs(t *testing.T) {
	topo := thetaTopo(4, 2)
	p, err := Lower("alltoall", topo, Shape{BlockBytes: 8}, Strategy{Name: "phased"})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(p.Phases); n != 3 {
		t.Fatalf("phased plan has %d phases, want 3", n)
	}
	// Every rank pair moves exactly once. Within a phase, each node pair is
	// a permutation: every node sends to exactly one other node (plus
	// phase-0 intra-node and self traffic).
	pairs := map[[2]int]int{}
	for pi, ph := range p.Phases {
		egressTo := map[int]map[int]bool{}
		for _, m := range ph.Moves {
			pairs[[2]int{m.From, m.To}]++
			sn, dn := topo.NodeOf[m.From], topo.NodeOf[m.To]
			if sn == dn {
				if pi != 0 {
					t.Fatalf("intra traffic in phase %d", pi)
				}
				continue
			}
			if egressTo[sn] == nil {
				egressTo[sn] = map[int]bool{}
			}
			egressTo[sn][dn] = true
		}
		for sn, tos := range egressTo {
			if len(tos) != 1 {
				t.Fatalf("phase %d: node %d egresses to %d nodes, want 1", pi, sn, len(tos))
			}
		}
	}
	n := topo.Ranks()
	if len(pairs) != n*n {
		t.Fatalf("phased plan covers %d rank pairs, want %d", len(pairs), n*n)
	}
	for pr, c := range pairs {
		if c != 1 {
			t.Fatalf("pair %v moves %d times, want once", pr, c)
		}
	}
}

// TestSearchPrefersPhased: on the 4-node Fig6 shape the HOL model must
// rank the phased permutation schedule ahead of the direct shuffle at
// large sizes, and collapse to direct on 1 node and 2 nodes.
func TestSearchPrefersPhased(t *testing.T) {
	big := Shape{BlockBytes: 4 << 20}
	p4, err := Search("alltoall", thetaTopo(4, 2), big)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustParse(t, p4.Key).Name; got != "phased" {
		t.Fatalf("4-node 4MB alltoall: want phased, got %s", p4.Key)
	}
	p1, err := Search("alltoall", thetaTopo(1, 4), big)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Key != "direct" {
		t.Fatalf("1-node alltoall: want direct, got %s", p1.Key)
	}
	p2, err := Search("alltoall", thetaTopo(2, 2), big)
	if err != nil {
		t.Fatal(err)
	}
	// 2 nodes: one ingress per egress already — no convoy, direct is at
	// the saturation floor and phased only adds fences.
	if p2.Key != "direct" {
		t.Fatalf("2-node alltoall: want direct, got %s", p2.Key)
	}
}

func TestSearchDeterministic(t *testing.T) {
	topo := thetaTopo(4, 3)
	for _, op := range []string{"alltoall", "alltoallv", "scatter", "gather"} {
		a, err := Search(op, topo, Shape{BlockBytes: 1 << 20, Root: 1})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Search(op, topo, Shape{BlockBytes: 1 << 20, Root: 1})
		if err != nil {
			t.Fatal(err)
		}
		if a.Key != b.Key || a.Cost != b.Cost {
			t.Fatalf("%s: search not deterministic: %s/%g vs %s/%g", op, a.Key, a.Cost, b.Key, b.Cost)
		}
	}
}

func TestKeysSorted(t *testing.T) {
	ks := Keys("scatter", thetaTopo(2, 4))
	if len(ks) < 3 {
		t.Fatalf("scatter candidate keys: got %v", ks)
	}
	if !sort.StringsAreSorted(ks) {
		t.Fatalf("keys not sorted: %v", ks)
	}
}

func TestValidateRejects(t *testing.T) {
	check := func(m Move) error {
		p := &Plan{Op: "x", Ranks: 2, Phases: []Phase{{Moves: []Move{m}}}}
		return p.Check()
	}
	if err := check(Move{From: 0, To: 5, Bytes: 1}); err == nil {
		t.Fatal("out-of-range endpoint not rejected")
	}
	if err := check(Move{From: 0, To: 1, Bytes: -1}); err == nil {
		t.Fatal("negative size not rejected")
	}
	if err := check(Move{From: 0, To: 1, Bytes: 1, SrcOff: -1}); err == nil {
		t.Fatal("negative offset not rejected")
	}
	if err := check(Move{From: 0, To: 1, Bytes: 1, Reduce: true}); err == nil {
		t.Fatal("unstaged reduce move not rejected")
	}
	for _, s := range Candidates("scatter", thetaTopo(2, 2)) {
		if _, err := Lower("scatter", thetaTopo(2, 2), Shape{BlockBytes: 8, Root: 4}, s); err == nil {
			t.Fatalf("%s: Lower accepted a root outside the topology", s.Key())
		}
	}
}

// TestCheckSizesSlot: a plan's pipe slot is its largest staged source
// chunk, and 1 when nothing is staged.
func TestCheckSizesSlot(t *testing.T) {
	p := &Plan{Op: "x", Ranks: 2, Phases: []Phase{{Moves: []Move{
		{From: 0, To: 1, Bytes: 64},
		{From: 1, To: 0, Bytes: 8, SrcBytes: 12, Staged: true},
		{From: 0, To: 1, Bytes: 10, Reduce: true, Staged: true},
	}}}}
	if err := p.Check(); err != nil {
		t.Fatal(err)
	}
	if p.Slot != 12 {
		t.Fatalf("slot = %d, want the largest staged source chunk 12", p.Slot)
	}
	d, err := Lower("alltoall", thetaTopo(2, 2), Shape{BlockBytes: 1 << 20}, Strategy{Name: "direct"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Slot != 1 {
		t.Fatalf("all-direct plan slot = %d, want 1", d.Slot)
	}
}

// TestLowerDeterministic: lowering the same candidate twice yields equal
// plans, move order included.
func TestLowerDeterministic(t *testing.T) {
	for _, topo := range []*Topo{thetaTopo(4, 3), topoOf(0, 1, 2, 0, 1, 2, 2)} {
		for _, op := range []string{"alltoall", "alltoallv", "scatter", "gather"} {
			for _, s := range Candidates(op, topo) {
				sh := Shape{BlockBytes: 96, Root: 1}
				a, err := Lower(op, topo, sh, s)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 5; i++ {
					b, err := Lower(op, topo, sh, s)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(a, b) {
						t.Fatalf("%s %s: two lowerings differ", op, s.Key())
					}
				}
			}
		}
	}
}

func mustParse(t *testing.T, key string) Strategy {
	t.Helper()
	s, err := ParseKey(key)
	if err != nil {
		t.Fatalf("ParseKey(%q): %v", key, err)
	}
	return s
}
