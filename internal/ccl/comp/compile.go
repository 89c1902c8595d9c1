package comp

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Strategy is a parsed plan key: the decomposition family plus its search
// attributes. The serialized form persists in version-3 tuning tables.
//
// Key grammar:
//
//	direct[:chunk=N]                         one phase of every move
//	phased[:chunk=N]                         node-permutation phases
//	staged:intra=flat|tree,stripe=W,depth=D[,chunk=N]
//	                                         leader-staged hierarchy
type Strategy struct {
	Name   string // direct | phased | staged
	Intra  string // flat | tree (staged only)
	Stripe int    // concurrent inter-node lanes per leader flow (staged)
	Depth  int    // chunked pipeline rounds (staged)
	Chunk  int64  // fabric pipeline granularity override (0 = default)
}

// Key serializes the strategy in canonical form.
func (s Strategy) Key() string {
	switch s.Name {
	case "staged":
		key := fmt.Sprintf("staged:intra=%s,stripe=%d,depth=%d", s.Intra, s.Stripe, s.Depth)
		if s.Chunk > 0 {
			key += fmt.Sprintf(",chunk=%d", s.Chunk)
		}
		return key
	default:
		if s.Chunk > 0 {
			return fmt.Sprintf("%s:chunk=%d", s.Name, s.Chunk)
		}
		return s.Name
	}
}

// ParseKey parses a plan key back into a Strategy, validating the grammar
// and attribute ranges.
func ParseKey(key string) (Strategy, error) {
	name, attrs, _ := strings.Cut(key, ":")
	s := Strategy{Name: name}
	switch name {
	case "direct", "phased":
		if attrs != "" {
			c, err := parseAttrs(key, attrs, map[string]bool{"chunk": true})
			if err != nil {
				return Strategy{}, err
			}
			s.Chunk = c.chunk
		}
	case "staged":
		c, err := parseAttrs(key, attrs, map[string]bool{"intra": true, "stripe": true, "depth": true, "chunk": true})
		if err != nil {
			return Strategy{}, err
		}
		s.Intra, s.Stripe, s.Depth, s.Chunk = c.intra, c.stripe, c.depth, c.chunk
		if s.Intra == "" {
			s.Intra = "flat"
		}
		if s.Intra != "flat" && s.Intra != "tree" {
			return Strategy{}, fmt.Errorf("comp: plan key %q: intra must be flat or tree", key)
		}
		if s.Stripe < 1 {
			s.Stripe = 1
		}
		if s.Depth < 1 {
			s.Depth = 1
		}
		if s.Intra == "tree" && s.Depth > 1 {
			return Strategy{}, fmt.Errorf("comp: plan key %q: intra=tree does not chunk (depth must be 1)", key)
		}
	default:
		return Strategy{}, fmt.Errorf("comp: plan key %q: unknown strategy %q", key, name)
	}
	return s, nil
}

// maxCount bounds a key's stripe and depth. The search sweeps up to 4 of
// each; a tuning table is outside input, so a key past the bound is
// refused before anything is sized by it.
const maxCount = 64

type attrSet struct {
	intra         string
	stripe, depth int
	chunk         int64
}

func parseAttrs(key, attrs string, allowed map[string]bool) (attrSet, error) {
	var out attrSet
	if attrs == "" {
		return out, nil
	}
	for _, kv := range strings.Split(attrs, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || !allowed[k] {
			return out, fmt.Errorf("comp: plan key %q: bad attribute %q", key, kv)
		}
		switch k {
		case "intra":
			out.intra = v
		case "stripe", "depth", "chunk":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 1 {
				return out, fmt.Errorf("comp: plan key %q: %s wants a positive integer, got %q", key, k, v)
			}
			if k != "chunk" && n > maxCount {
				return out, fmt.Errorf("comp: plan key %q: %s is at most %d, got %d", key, k, maxCount, n)
			}
			switch k {
			case "stripe":
				out.stripe = int(n)
			case "depth":
				out.depth = int(n)
			case "chunk":
				out.chunk = n
			}
		}
	}
	return out, nil
}

// lowerFunc lowers one (op, strategy family) pair into an unchecked plan.
type lowerFunc func(op string, t *Topo, sh Shape, s Strategy) *Plan

// lowerings maps each compiled op to the lowering of every strategy
// family it takes. Lower, ValidKey and Compiles all read it, so a key a
// tuning table may carry is exactly a key Lower can build.
var lowerings = map[string]map[string]lowerFunc{
	"alltoall":  {"direct": lowerAlltoall, "phased": lowerAlltoall},
	"alltoallv": {"direct": lowerAlltoall, "phased": lowerAlltoall},
	"scatter":   {"direct": lowerRootDirect, "staged": lowerRootStaged},
	"gather":    {"direct": lowerRootDirect, "staged": lowerRootStaged},
}

// Compiles reports whether the compiler lowers op (the synthesized
// collectives: alltoall(v), scatter, gather).
func Compiles(op string) bool { return lowerings[op] != nil }

// ValidKey reports whether key names a strategy the given op can run
// (table-v3 validation: reject bands that could never dispatch). Only the
// compiled ops take plan keys; a built-in collective's schedule family is
// the band's algorithm selector, not a plan.
func ValidKey(op, key string) error {
	if !Compiles(op) {
		return fmt.Errorf("comp: op %s takes no plan key, got %q", op, key)
	}
	s, err := ParseKey(key)
	if err != nil {
		return err
	}
	if lowerings[op][s.Name] == nil {
		return fmt.Errorf("comp: op %s has no %s lowering (plan %q)", op, s.Name, key)
	}
	return nil
}

// Candidates enumerates the search space for op on the topology: the
// decomposition families times their attribute sweeps. Single-node worlds
// collapse to the direct plan — every hierarchy degenerates there.
func Candidates(op string, t *Topo) []Strategy {
	multi := t.Nodes > 1
	switch op {
	case "alltoall", "alltoallv":
		out := []Strategy{{Name: "direct"}}
		if multi {
			out = append(out,
				Strategy{Name: "phased"},
				Strategy{Name: "phased", Chunk: 1 << 20},
				Strategy{Name: "phased", Chunk: 2 << 20},
			)
		}
		return out
	case "scatter", "gather":
		out := []Strategy{{Name: "direct"}}
		if multi {
			for _, stripe := range []int{1, 2, 4} {
				for _, depth := range []int{1, 2, 4} {
					out = append(out, Strategy{Name: "staged", Intra: "flat", Stripe: stripe, Depth: depth})
				}
			}
			out = append(out,
				Strategy{Name: "staged", Intra: "tree", Stripe: 1, Depth: 1},
				Strategy{Name: "staged", Intra: "tree", Stripe: 2, Depth: 1},
			)
		}
		return out
	}
	return nil
}

// Shape is the call signature the compiler lowers: the per-block payload
// (one rank pair's block for alltoall, one rank's for scatter/gather) and
// the root (rooted collectives only).
type Shape struct {
	BlockBytes int64
	Root       int
}

// Lower compiles (op, shape, strategy) for the topology into a checked,
// executable plan. The plan cost is NOT set — Search prices candidates;
// direct callers can use Topo.PlanCost.
func Lower(op string, t *Topo, sh Shape, s Strategy) (*Plan, error) {
	if t.Ranks() == 0 {
		return nil, fmt.Errorf("comp: empty topology")
	}
	if sh.Root < 0 || sh.Root >= t.Ranks() {
		return nil, fmt.Errorf("comp: root %d out of %d ranks", sh.Root, t.Ranks())
	}
	lower := lowerings[op][s.Name]
	if lower == nil {
		return nil, fmt.Errorf("comp: op %q has no %s lowering", op, s.Name)
	}
	p := lower(op, t, sh, s)
	if err := p.Check(); err != nil {
		return nil, err
	}
	return p, nil
}

// Search lowers every candidate strategy for (op, shape), prices each with
// the α–β model, and returns the cheapest plan (ties keep the earlier,
// simpler candidate). The search is deterministic: candidate order and the
// cost model are pure functions of (op, shape, topo).
func Search(op string, t *Topo, sh Shape) (*Plan, error) {
	var best *Plan
	for _, s := range Candidates(op, t) {
		p, err := Lower(op, t, sh, s)
		if err != nil {
			return nil, err
		}
		p.Cost = t.PlanCost(p)
		if best == nil || p.Cost < best.Cost {
			best = p
		}
	}
	if best == nil {
		return nil, fmt.Errorf("comp: no candidates for op %q", op)
	}
	return best, nil
}

// CompileKey lowers the exact strategy a tuning-table band names.
func CompileKey(op string, t *Topo, sh Shape, key string) (*Plan, error) {
	s, err := ParseKey(key)
	if err != nil {
		return nil, err
	}
	p, err := Lower(op, t, sh, s)
	if err != nil {
		return nil, err
	}
	p.Cost = t.PlanCost(p)
	return p, nil
}

// Pairwise builds the plan of a rank-pair exchange (alltoall, alltoallv)
// under the strategy's pairing: move(r, q) is rank r's block for rank q,
// and false skips the pair. "direct" runs every move in one phase.
// "phased" runs m−1 fenced node-permutation rounds: in round p node i
// sends only to node (i+p+1) mod m, so every egress pool feeds exactly one
// ingress pool — no flow parks on a foreign-contended pool holding grants
// (the head-of-line convoy the direct schedule suffers on ≥3 nodes).
// Intra-node and self moves run in round 0, overlapping the first
// exchange on the local links. A round keeps its place even when every
// pair in it is skipped, so every fence still happens. The plan is
// unchecked.
func Pairwise(op string, t *Topo, s Strategy, move func(r, q int) (Move, bool)) *Plan {
	p := newPlan(op, t, s)
	p.Fenced = s.Name == "phased"
	rounds := 1
	if p.Fenced && t.Nodes > 1 {
		rounds = t.Nodes - 1
	}
	p.Phases = make([]Phase, rounds)
	n := t.Ranks()
	for r := 0; r < n; r++ {
		for q := 0; q < n; q++ {
			m, ok := move(r, q)
			if !ok {
				continue
			}
			round := 0
			if rounds > 1 {
				d := (t.NodeOf[q] - t.NodeOf[r] + t.Nodes) % t.Nodes
				round = max(d-1, 0)
			}
			p.Phases[round].Moves = append(p.Phases[round].Moves, m)
		}
	}
	return p
}

// lowerAlltoall pairs uniform blocks: rank r's block q lands in rank q's
// block r.
func lowerAlltoall(op string, t *Topo, sh Shape, s Strategy) *Plan {
	blk := sh.BlockBytes
	return Pairwise(op, t, s, func(r, q int) (Move, bool) {
		return Move{
			From: r, To: q,
			SrcBuf: SendBuf, SrcOff: int64(q) * blk,
			DstBuf: RecvBuf, DstOff: int64(r) * blk,
			Bytes: blk,
		}, true
	})
}

// lowerRootDirect: scatter/gather as one fan between root and every rank
// — the synthesized baseline's shape.
func lowerRootDirect(op string, t *Topo, sh Shape, s Strategy) *Plan {
	p := newPlan(op, t, s)
	blk, root := sh.BlockBytes, sh.Root
	var moves []Move
	for q := 0; q < t.Ranks(); q++ {
		if op == "scatter" {
			moves = append(moves, Move{
				From: root, To: q,
				SrcBuf: SendBuf, SrcOff: int64(q) * blk,
				DstBuf: RecvBuf, DstOff: 0,
				Bytes: blk,
			})
		} else {
			moves = append(moves, Move{
				From: q, To: root,
				SrcBuf: SendBuf, SrcOff: 0,
				DstBuf: RecvBuf, DstOff: int64(q) * blk,
				Bytes: blk,
			})
		}
	}
	p.add(0, moves)
	return p
}

// chunkBounds splits [0, blk) into depth byte ranges.
func chunkBounds(blk int64, depth int) []int64 {
	if depth < 1 {
		depth = 1
	}
	bounds := make([]int64, depth+1)
	for i := 0; i <= depth; i++ {
		bounds[i] = blk * int64(i) / int64(depth)
	}
	return bounds
}

// laneSplit splits the byte range [off, off+ln) into w lane sub-moves.
func laneSplit(m Move, w int) []Move {
	if w <= 1 || m.Bytes < int64(w) {
		return []Move{m}
	}
	out := make([]Move, 0, w)
	for l := 0; l < w; l++ {
		lo := m.Bytes * int64(l) / int64(w)
		hi := m.Bytes * int64(l+1) / int64(w)
		if hi == lo {
			continue
		}
		sub := m
		sub.SrcOff += lo
		sub.DstOff += lo
		sub.Bytes = hi - lo
		sub.Lane = l
		out = append(out, sub)
	}
	return out
}

// lowerRootStaged: scatter/gather through node leaders. Scatter rounds
// (chunked by depth, unfenced so rounds pipeline): root ships each remote
// node's blocks into the leader's scratch (stripe lanes saturate the NIC
// pool past one flow's per-direction channel cap), then the leader fans
// out intra-node — flat (direct writes) or a binomial tree over the local
// group. Gather is the mirror image. Root's own node always moves
// directly. Inter hops are stage class 0, intra hops stage class 1.
func lowerRootStaged(op string, t *Topo, sh Shape, s Strategy) *Plan {
	if t.Nodes <= 1 {
		p := lowerRootDirect(op, t, sh, s)
		p.PipeDepth = s.Depth
		return p
	}
	p := newPlan(op, t, s)
	p.PipeDepth = s.Depth
	blk, root := sh.BlockBytes, sh.Root
	rootNode := t.NodeOf[root]
	locals := t.groups()
	bounds := chunkBounds(blk, s.Depth)
	for c := 0; c < s.Depth; c++ {
		c0, c1 := bounds[c], bounds[c+1]
		ln := c1 - c0
		if ln == 0 {
			continue
		}
		if op == "scatter" {
			// Inter hop: root → leaders (scratch), root's node direct.
			var inter []Move
			for nd, g := range locals {
				for li, q := range g {
					if nd == rootNode {
						inter = append(inter, Move{
							From: root, To: q,
							SrcBuf: SendBuf, SrcOff: int64(q)*blk + c0,
							DstBuf: RecvBuf, DstOff: c0,
							Bytes: ln,
						})
						continue
					}
					inter = append(inter, laneSplit(Move{
						From: root, To: g[0],
						SrcBuf: SendBuf, SrcOff: int64(q)*blk + c0,
						DstBuf: ScratchBuf, DstOff: int64(li)*blk + c0,
						Bytes: ln,
					}, s.Stripe)...)
				}
			}
			p.add(0, inter)
			// Intra hop: leaders fan out scratch → recv.
			if s.Intra == "tree" {
				treeFan(p, locals, rootNode, blk, c0, ln, true)
				continue
			}
			var intra []Move
			for nd, g := range locals {
				if nd == rootNode {
					continue
				}
				for li, q := range g {
					intra = append(intra, Move{
						From: g[0], To: q,
						SrcBuf: ScratchBuf, SrcOff: int64(li)*blk + c0,
						DstBuf: RecvBuf, DstOff: c0,
						Bytes: ln,
					})
				}
			}
			p.add(1, intra)
			continue
		}
		// Gather. Intra hop: locals → leader scratch.
		if s.Intra == "tree" {
			treeFan(p, locals, rootNode, blk, c0, ln, false)
		} else {
			var intra []Move
			for nd, g := range locals {
				if nd == rootNode {
					continue
				}
				for li, q := range g {
					intra = append(intra, Move{
						From: q, To: g[0],
						SrcBuf: SendBuf, SrcOff: c0,
						DstBuf: ScratchBuf, DstOff: int64(li)*blk + c0,
						Bytes: ln,
					})
				}
			}
			p.add(1, intra)
		}
		// Root's node ranks send direct; root self-copies.
		var direct []Move
		for _, q := range locals[rootNode] {
			direct = append(direct, Move{
				From: q, To: root,
				SrcBuf: SendBuf, SrcOff: c0,
				DstBuf: RecvBuf, DstOff: int64(q)*blk + c0,
				Bytes: ln,
			})
		}
		p.add(1, direct)
		// Inter hop: leaders ship their node's aggregate to root.
		var inter []Move
		for nd, g := range locals {
			if nd == rootNode {
				continue
			}
			for li, q := range g {
				inter = append(inter, laneSplit(Move{
					From: g[0], To: root,
					SrcBuf: ScratchBuf, SrcOff: int64(li)*blk + c0,
					DstBuf: RecvBuf, DstOff: int64(q)*blk + c0,
					Bytes: ln,
				}, s.Stripe)...)
			}
		}
		p.add(0, inter)
	}
	return p
}

// treeFan appends the binomial intra-node relay levels for staged scatter
// (down = true: each leader fans block ranges out through relays) or
// gather (down = false: relays fan block ranges in toward the leader) on
// every node but the root's. Every level is an intra hop (stage 1). Ranges
// live in scratch at every hop; a copy level moves each rank's own block
// between scratch and the user buffer.
func treeFan(p *Plan, locals [][]int, rootNode int, blk, c0, ln int64, down bool) {
	// Level distances: the powers of two below the biggest group, smallest
	// first for a gather's fan-in.
	maxL := 0
	for nd, g := range locals {
		if nd != rootNode {
			maxL = max(maxL, len(g))
		}
	}
	var dists []int
	for d := 1; d < maxL; d *= 2 {
		dists = append(dists, d)
	}
	if down {
		// Scatter relays run largest distance first (fan-out).
		slices.Reverse(dists)
	}
	// own moves each rank's block between its user buffer and its scratch
	// range (send → scratch before a gather, scratch → recv after a
	// scatter).
	own := func() []Move {
		var moves []Move
		for nd, g := range locals {
			if nd == rootNode {
				continue
			}
			for li, q := range g {
				m := Move{
					From: q, To: q,
					SrcBuf: SendBuf, SrcOff: c0,
					DstBuf: ScratchBuf, DstOff: int64(li)*blk + c0,
					Bytes: ln,
				}
				if down {
					m.SrcBuf, m.SrcOff = ScratchBuf, int64(li)*blk+c0
					m.DstBuf, m.DstOff = RecvBuf, c0
				}
				moves = append(moves, m)
			}
		}
		return moves
	}
	if !down {
		p.add(1, own())
	}
	for _, dist := range dists {
		var moves []Move
		for nd, g := range locals {
			if nd == rootNode {
				continue
			}
			for i := 0; i+dist < len(g); i += 2 * dist {
				// The range [j, min(j+dist, len)) of local blocks moves
				// between holder g[i] and relay g[j], one move per block so
				// the executor stays uniform across chunked rounds.
				j := i + dist
				for b := j; b < min(j+dist, len(g)); b++ {
					src, dst := g[i], g[j]
					if !down {
						src, dst = g[j], g[i]
					}
					moves = append(moves, Move{
						From: src, To: dst,
						SrcBuf: ScratchBuf, SrcOff: int64(b)*blk + c0,
						DstBuf: ScratchBuf, DstOff: int64(b)*blk + c0,
						Bytes: ln,
					})
				}
			}
		}
		p.add(1, moves)
	}
	if down {
		p.add(1, own())
	}
}

// Keys returns the canonical candidate keys for op on the topology: the
// strategies Search ranks, and so the keys Comm.PlanKeys lists. omb.Tune
// sweeps a fixed subset of them (its planSweep).
func Keys(op string, t *Topo) []string {
	cands := Candidates(op, t)
	out := make([]string, 0, len(cands))
	for _, s := range cands {
		out = append(out, s.Key())
	}
	sort.Strings(out)
	return out
}
