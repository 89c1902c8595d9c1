package comp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Strategy is a parsed plan key: the decomposition family plus its search
// attributes. The serialized form persists in version-3 tuning tables.
//
// Key grammar:
//
//	direct[:chunk=N]                         one shuffle/multicast phase
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

// compiledOps lists the collectives the compiler lowers to move phases.
var compiledOps = map[string]bool{
	"alltoall": true, "alltoallv": true, "scatter": true, "gather": true,
}

// ValidKey reports whether key names a strategy the given op can run
// (table-v3 validation: reject bands that could never dispatch). Only the
// compiled ops take plan keys; a built-in collective's schedule family is
// the band's algorithm selector, not a plan.
func ValidKey(op, key string) error {
	if !compiledOps[op] {
		return fmt.Errorf("comp: op %s takes no plan key, got %q", op, key)
	}
	s, err := ParseKey(key)
	if err != nil {
		return err
	}
	if s.Name == "staged" && (op == "alltoall" || op == "alltoallv") {
		return fmt.Errorf("comp: op %s has no staged lowering (plan %q)", op, key)
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

// Lower compiles (op, shape, strategy) for the topology into an
// executable plan: build the primitive DAG, schedule it into phases, and
// attach the execution attributes. The plan cost is NOT set — Search
// prices candidates; direct callers can use Topo.PlanCost.
func Lower(op string, t *Topo, sh Shape, s Strategy) (*Plan, error) {
	if t.Ranks() == 0 {
		return nil, fmt.Errorf("comp: empty topology")
	}
	var (
		d     *DAG
		err   error
		plan  *Plan
		fence bool
		stage []int
		depth = 1
	)
	switch {
	case op == "alltoall" || op == "alltoallv":
		switch s.Name {
		case "direct":
			d = lowerAlltoallDirect(t, sh.BlockBytes)
		case "phased":
			d = lowerAlltoallPhased(t, sh.BlockBytes)
			fence = true
		default:
			err = fmt.Errorf("comp: op %s has no %s lowering", op, s.Name)
		}
	case op == "scatter" || op == "gather":
		switch s.Name {
		case "direct":
			d = lowerRootDirect(op, t, sh)
		case "staged":
			d, stage, err = lowerRootStaged(op, t, sh, s)
			depth = s.Depth
		default:
			err = fmt.Errorf("comp: op %s has no %s lowering", op, s.Name)
		}
	default:
		err = fmt.Errorf("comp: unknown op %q", op)
	}
	if err != nil {
		return nil, err
	}
	plan, err = d.Schedule(s.Key())
	if err != nil {
		return nil, err
	}
	plan.Op = op
	plan.Fenced = fence
	plan.ChunkBytes = s.Chunk
	plan.PipeDepth = depth
	if depth > 1 {
		plan.StageOf = stage
	}
	return plan, nil
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

// NumPhases returns the phase count of the pairing schedule for the
// strategy on this topology (alltoallv builds its per-rank moves at run
// time from local counts; only the pairing is compiled).
func NumPhases(t *Topo, s Strategy) int {
	if s.Name == "phased" && t.Nodes > 1 {
		return t.Nodes - 1
	}
	return 1
}

// PairPhase places the (from → to) flow in its phase under the strategy's
// pairing schedule. Phased plans run node-permutation rounds — in phase p
// node i talks only to node (i+p+1) mod m, so each egress pool serves
// exactly one ingress pool — with intra-node traffic folded into phase 0.
func PairPhase(t *Topo, s Strategy, from, to int) int {
	if s.Name != "phased" || t.Nodes <= 1 {
		return 0
	}
	o := offsetMod(t.NodeOf[to]-t.NodeOf[from], t.Nodes)
	if o == 0 {
		return 0
	}
	return o - 1
}

func offsetMod(d, m int) int {
	d %= m
	if d < 0 {
		d += m
	}
	return d
}

// --- Lowerings ---

// lowerAlltoallDirect: one shuffle prim with every pairwise block move —
// the schedule the send-recv synthesized path approximates.
func lowerAlltoallDirect(t *Topo, blk int64) *DAG {
	n := t.Ranks()
	pr := Prim{Kind: Shuffle, Group: allRanks(n)}
	for r := 0; r < n; r++ {
		for q := 0; q < n; q++ {
			pr.Moves = append(pr.Moves, Move{
				From: r, To: q,
				SrcBuf: SendBuf, SrcOff: int64(q) * blk,
				DstBuf: RecvBuf, DstOff: int64(r) * blk,
				Bytes: blk,
			})
		}
	}
	return &DAG{Op: "alltoall", Ranks: n, Prims: []Prim{pr}}
}

// lowerAlltoallPhased: m-1 node-permutation shuffle prims separated by
// fences. In phase p, node i sends only to node (i+p+1) mod m, so every
// egress pool feeds exactly one ingress pool — no flow parks on a
// foreign-contended pool holding grants (the head-of-line convoy the
// direct schedule suffers on ≥3 nodes). Intra-node and self moves fold
// into phase 0, overlapping the first exchange on the local links.
func lowerAlltoallPhased(t *Topo, blk int64) *DAG {
	n := t.Ranks()
	m := t.Nodes
	if m <= 1 {
		return lowerAlltoallDirect(t, blk)
	}
	d := &DAG{Op: "alltoall", Ranks: n}
	prev := -1
	for p := 0; p < m-1; p++ {
		pr := Prim{Kind: Shuffle, Group: allRanks(n)}
		if prev >= 0 {
			pr.Deps = []int{prev}
		}
		for r := 0; r < n; r++ {
			for q := 0; q < n; q++ {
				o := offsetMod(t.NodeOf[q]-t.NodeOf[r], m)
				if (o == 0 && p == 0) || o == p+1 {
					pr.Moves = append(pr.Moves, Move{
						From: r, To: q,
						SrcBuf: SendBuf, SrcOff: int64(q) * blk,
						DstBuf: RecvBuf, DstOff: int64(r) * blk,
						Bytes: blk,
					})
				}
			}
		}
		d.Prims = append(d.Prims, pr)
		prev = len(d.Prims) - 1
	}
	return d
}

// lowerRootDirect: scatter/gather as one multicast/reduce-free fan
// between root and every rank — the synthesized baseline's shape.
func lowerRootDirect(op string, t *Topo, sh Shape) *DAG {
	n := t.Ranks()
	blk, root := sh.BlockBytes, sh.Root
	kind := Multicast
	if op == "gather" {
		kind = Reduce // fan-in shape (no combining — moves carry no Reduce flag)
	}
	pr := Prim{Kind: kind, Group: allRanks(n), Root: root}
	for q := 0; q < n; q++ {
		if op == "scatter" {
			pr.Moves = append(pr.Moves, Move{
				From: root, To: q,
				SrcBuf: SendBuf, SrcOff: int64(q) * blk,
				DstBuf: RecvBuf, DstOff: 0,
				Bytes: blk,
			})
		} else {
			pr.Moves = append(pr.Moves, Move{
				From: q, To: root,
				SrcBuf: SendBuf, SrcOff: 0,
				DstBuf: RecvBuf, DstOff: int64(q) * blk,
				Bytes: blk,
			})
		}
	}
	return &DAG{Op: op, Ranks: n, Prims: []Prim{pr}}
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
// directly. Returns the DAG plus each emitted prim-level's stage class
// (0 = inter hop, 1 = intra hop) aligned with the scheduled phases.
func lowerRootStaged(op string, t *Topo, sh Shape, s Strategy) (*DAG, []int, error) {
	n, m := t.Ranks(), t.Nodes
	blk, root := sh.BlockBytes, sh.Root
	if m <= 1 {
		d := lowerRootDirect(op, t, sh)
		return d, []int{0}, nil
	}
	rootNode := t.NodeOf[root]
	nodes := t.nodes()
	leaders := map[int]int{}
	locals := map[int][]int{}
	for _, nd := range nodes {
		g := groupRanks(t, nd)
		locals[nd] = g
		leaders[nd] = g[0]
	}
	d := &DAG{Op: op, Ranks: n}
	var stages []int
	bounds := chunkBounds(blk, s.Depth)
	prev := -1
	emit := func(pr Prim, stage int) int {
		if prev >= 0 {
			pr.Deps = []int{prev}
		}
		d.Prims = append(d.Prims, pr)
		stages = append(stages, stage)
		prev = len(d.Prims) - 1
		return prev
	}
	for c := 0; c < s.Depth; c++ {
		c0, c1 := bounds[c], bounds[c+1]
		ln := c1 - c0
		if ln == 0 {
			continue
		}
		if op == "scatter" {
			// Inter hop: root → leaders (scratch), root's node direct.
			inter := Prim{Kind: Multicast, Group: allRanks(n), Root: root, Stripe: s.Stripe, ChunkBytes: s.Chunk}
			for _, nd := range nodes {
				if nd == rootNode {
					for _, q := range locals[nd] {
						inter.Moves = append(inter.Moves, Move{
							From: root, To: q,
							SrcBuf: SendBuf, SrcOff: int64(q)*blk + c0,
							DstBuf: RecvBuf, DstOff: c0,
							Bytes: ln,
						})
					}
					continue
				}
				lead := leaders[nd]
				for li, q := range locals[nd] {
					base := Move{
						From: root, To: lead,
						SrcBuf: SendBuf, SrcOff: int64(q)*blk + c0,
						DstBuf: ScratchBuf, DstOff: int64(li)*blk + c0,
						Bytes: ln,
					}
					inter.Moves = append(inter.Moves, laneSplit(base, s.Stripe)...)
				}
			}
			emit(inter, 0)
			// Intra hop: leaders fan out scratch → recv.
			if s.Intra == "tree" {
				emitTreeFan(d, emit, t, locals, leaders, rootNode, blk, c0, ln, true)
			} else {
				intra := Prim{Kind: Multicast, Group: allRanks(n)}
				for _, nd := range nodes {
					if nd == rootNode {
						continue
					}
					lead := leaders[nd]
					for li, q := range locals[nd] {
						intra.Moves = append(intra.Moves, Move{
							From: lead, To: q,
							SrcBuf: ScratchBuf, SrcOff: int64(li)*blk + c0,
							DstBuf: RecvBuf, DstOff: c0,
							Bytes: ln,
						})
					}
				}
				emit(intra, 1)
			}
		} else { // gather
			// Intra hop: locals → leader scratch, root's node direct to root.
			if s.Intra == "tree" {
				emitTreeFan(d, emit, t, locals, leaders, rootNode, blk, c0, ln, false)
			} else {
				intra := Prim{Kind: Reduce, Group: allRanks(n)}
				for _, nd := range nodes {
					if nd == rootNode {
						continue
					}
					lead := leaders[nd]
					for li, q := range locals[nd] {
						intra.Moves = append(intra.Moves, Move{
							From: q, To: lead,
							SrcBuf: SendBuf, SrcOff: c0,
							DstBuf: ScratchBuf, DstOff: int64(li)*blk + c0,
							Bytes: ln,
						})
					}
				}
				emit(intra, 1)
			}
			// Root's node ranks send direct; root self-copies. Same level as
			// the remote nodes' intra hop via its own prim (merged level
			// would chain deps; emit then the inter hop).
			direct := Prim{Kind: Reduce, Group: locals[rootNode], Root: root}
			for _, q := range locals[rootNode] {
				direct.Moves = append(direct.Moves, Move{
					From: q, To: root,
					SrcBuf: SendBuf, SrcOff: c0,
					DstBuf: RecvBuf, DstOff: int64(q)*blk + c0,
					Bytes: ln,
				})
			}
			emit(direct, 1)
			// Inter hop: leaders ship their node's aggregate to root.
			inter := Prim{Kind: Reduce, Group: allRanks(n), Root: root, Stripe: s.Stripe, ChunkBytes: s.Chunk}
			for _, nd := range nodes {
				if nd == rootNode {
					continue
				}
				lead := leaders[nd]
				for li, q := range locals[nd] {
					base := Move{
						From: lead, To: root,
						SrcBuf: ScratchBuf, SrcOff: int64(li)*blk + c0,
						DstBuf: RecvBuf, DstOff: int64(q)*blk + c0,
						Bytes: ln,
					}
					inter.Moves = append(inter.Moves, laneSplit(base, s.Stripe)...)
				}
			}
			emit(inter, 0)
		}
	}
	return d, stages, nil
}

// emitTreeFan emits the binomial intra-node relay levels for staged
// scatter (down = true: leader fans block ranges out through relays) or
// gather (down = false: relays fan block ranges in toward the leader).
// Every emitted level is an intra hop (stage 1). Ranges live in scratch at
// every hop; a final copy level moves each rank's own block between
// scratch and the user buffer.
func emitTreeFan(d *DAG, emit func(Prim, int) int, t *Topo,
	locals map[int][]int, leaders map[int]int, rootNode int,
	blk, c0, ln int64, down bool) {
	// Level distances: largest power of two below the biggest group.
	maxL := 0
	for nd, g := range locals {
		if nd != rootNode && len(g) > maxL {
			maxL = len(g)
		}
	}
	pow := 1
	for pow*2 < maxL {
		pow *= 2
	}
	step := func(dist int, f func(nd int, g []int)) {
		for nd, g := range locals {
			if nd == rootNode || dist >= len(g) {
				continue
			}
			f(nd, g)
		}
	}
	dists := []int{}
	for dd := pow; dd >= 1; dd /= 2 {
		dists = append(dists, dd)
	}
	if !down {
		// Gather relays run smallest distance first (fan-in).
		for i, j := 0, len(dists)-1; i < j; i, j = i+1, j-1 {
			dists[i], dists[j] = dists[j], dists[i]
		}
		// Each rank seeds its own block into its scratch range first.
		seed := Prim{Kind: Reduce}
		step(0, func(nd int, g []int) {
			for li, q := range g {
				seed.Group = append(seed.Group, q)
				seed.Moves = append(seed.Moves, Move{
					From: q, To: q,
					SrcBuf: SendBuf, SrcOff: c0,
					DstBuf: ScratchBuf, DstOff: int64(li)*blk + c0,
					Bytes: ln,
				})
			}
		})
		emit(seed, 1)
	}
	for _, dist := range dists {
		pr := Prim{Kind: Multicast}
		if !down {
			pr.Kind = Reduce
		}
		step(dist, func(nd int, g []int) {
			for i := 0; i < len(g); i += 2 * dist {
				j := i + dist
				if j >= len(g) {
					continue
				}
				// The range [j, min(j+dist, len)) of local blocks moves
				// between holder g[i] and relay g[j], one move per block so
				// the executor stays uniform across chunked rounds.
				hi := j + dist
				if hi > len(g) {
					hi = len(g)
				}
				for b := j; b < hi; b++ {
					src, dst := g[i], g[j]
					if !down {
						src, dst = g[j], g[i]
					}
					pr.Group = append(pr.Group, src, dst)
					pr.Moves = append(pr.Moves, Move{
						From: src, To: dst,
						SrcBuf: ScratchBuf, SrcOff: int64(b)*blk + c0,
						DstBuf: ScratchBuf, DstOff: int64(b)*blk + c0,
						Bytes: ln,
					})
				}
			}
		})
		if len(pr.Moves) > 0 {
			emit(pr, 1)
		}
	}
	if down {
		// Each rank lifts its own block scratch → recv.
		lift := Prim{Kind: Multicast}
		step(0, func(nd int, g []int) {
			for li, q := range g {
				lift.Group = append(lift.Group, q)
				lift.Moves = append(lift.Moves, Move{
					From: q, To: q,
					SrcBuf: ScratchBuf, SrcOff: int64(li)*blk + c0,
					DstBuf: RecvBuf, DstOff: c0,
					Bytes: ln,
				})
			}
		})
		emit(lift, 1)
	}
}

func allRanks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
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
