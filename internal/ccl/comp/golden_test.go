package comp

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// The plan golden pins everything the compiler emits for the executor:
// every rank's program (outs, dests and ins per phase) and the plan's
// execution attributes and modeled cost, for every op × candidate key ×
// shape × block size × root, plus each shape's Search winner. A change to
// how plans are built must leave it byte-identical; a change to what they
// contain regenerates it with:
//
//	go test ./internal/ccl/comp -run TestPlanGolden -update-golden
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/plans.golden from the current compiler")

const plansGolden = "testdata/plans.golden"

// topoOf builds a ThetaGPU-like topology over an explicit rank → node map
// (dense node ids, not necessarily contiguous by rank).
func topoOf(nodeOf ...int) *Topo {
	t := thetaTopo(1, 1)
	t.NodeOf, t.Nodes = nodeOf, 0
	for _, n := range nodeOf {
		t.Nodes = max(t.Nodes, n+1)
	}
	return t
}

var goldenShapes = []struct {
	name string
	topo *Topo
}{
	{"1x3", thetaTopo(1, 3)},
	{"2x2", thetaTopo(2, 2)},
	{"4x2", thetaTopo(4, 2)},
	{"uneven-3-1-2", topoOf(0, 0, 0, 1, 2, 2)},
	{"interleaved", topoOf(0, 1, 0, 1, 2)},
}

var goldenBlocks = []int64{0, 1, 5, 4 << 20}

// goldenRoots are the roots a rooted op is lowered for: rank 0 and the
// last rank (off node 0 on every multi-node shape).
func goldenRoots(op string, n int) []int {
	if op != "scatter" && op != "gather" {
		return []int{0}
	}
	return []int{0, n - 1}
}

// fmtMove is a move in one token: from>to, source and destination as
// buffer letter + offset, the length, then any flags.
func fmtMove(m Move) string {
	buf := [...]string{SendBuf: "s", RecvBuf: "r", ScratchBuf: "x"}
	s := fmt.Sprintf("%d>%d:%s%d:%s%d+%d", m.From, m.To, buf[m.SrcBuf], m.SrcOff, buf[m.DstBuf], m.DstOff, m.Bytes)
	if m.SrcBytes != 0 {
		s += fmt.Sprintf("/src%d", m.SrcBytes)
	}
	if m.Lane != 0 {
		s += fmt.Sprintf("/l%d", m.Lane)
	}
	if m.Reduce {
		s += "/R"
	}
	if m.Staged {
		s += "/S"
	}
	return s
}

func fmtMoves(ms []Move) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = fmtMove(m)
	}
	return strings.Join(parts, " ")
}

// planStages is the stage class of each phase of a pipelined plan (nil
// for an unpipelined one, whose cost ignores stages).
func planStages(p *Plan) []int {
	if p.PipeDepth <= 1 {
		return nil
	}
	stages := []int{}
	for _, ph := range p.Phases {
		stages = append(stages, ph.Stage)
	}
	return stages
}

// dumpPlan writes the plan's attributes and every rank's program.
func dumpPlan(b *bytes.Buffer, p *Plan) {
	fmt.Fprintf(b, "key=%s fenced=%t chunk=%d depth=%d stages=%v scratch=%v cost=%s\n",
		p.Key, p.Fenced, p.ChunkBytes, p.PipeDepth, planStages(p), p.Scratch,
		strconv.FormatFloat(p.Cost, 'g', -1, 64))
	for r := 0; r < p.Ranks; r++ {
		for pi, ph := range p.Rank(r).Phases {
			if len(ph.Outs)+len(ph.Ins) == 0 {
				continue
			}
			fmt.Fprintf(b, "  r%d p%d out[%s] dests%v in[%s]\n", r, pi, fmtMoves(ph.Outs), ph.Dests, fmtMoves(ph.Ins))
		}
	}
}

// TestPlanGolden lowers and prices every candidate on every golden shape
// and compares the dump with the committed golden.
func TestPlanGolden(t *testing.T) {
	var got bytes.Buffer
	for _, sh := range goldenShapes {
		for _, op := range []string{"alltoall", "alltoallv", "scatter", "gather"} {
			for _, blk := range goldenBlocks {
				for _, root := range goldenRoots(op, sh.topo.Ranks()) {
					shape := Shape{BlockBytes: blk, Root: root}
					fmt.Fprintf(&got, "=== %s %s blk=%d root=%d\n", sh.name, op, blk, root)
					for _, s := range Candidates(op, sh.topo) {
						p, err := CompileKey(op, sh.topo, shape, s.Key())
						if err != nil {
							t.Fatalf("%s %s %s: %v", sh.name, op, s.Key(), err)
						}
						dumpPlan(&got, p)
					}
					best, err := Search(op, sh.topo, shape)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(&got, "search=%s cost=%s\n", best.Key, strconv.FormatFloat(best.Cost, 'g', -1, 64))
				}
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(plansGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(plansGolden)
	if err != nil {
		t.Fatalf("golden missing (run with -update-golden to create): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("plans differ from %s at line %d:\n got: %s\nwant: %s", plansGolden, i+1, g, w)
		}
	}
}
