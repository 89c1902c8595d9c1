package comp

// Topo is the machine description the cost model prices plans against:
// the rank→node map from the cached hierarchy plan plus the α–β link
// parameters the fabric charges. All rates are bytes per virtual second,
// all latencies virtual seconds.
type Topo struct {
	NodeOf []int // rank → dense node index
	Nodes  int

	// Intra-node link (per device pair): α, per-channel rate, the
	// per-direction channel cap one transfer may drive, and the duplex
	// pool total.
	IntraAlpha   float64
	IntraChanBW  float64
	IntraDirCh   int
	IntraTotalCh int

	// Inter-node link (per node egress/ingress pool): same parameters;
	// TotalCh is the pool size every flow leaving (entering) a node
	// shares.
	InterAlpha   float64
	InterChanBW  float64
	InterDirCh   int
	InterTotalCh int

	// Launch is the per-collective kernel launch latency, Step the
	// per-schedule-step cost, both charged once resp. per phase.
	Launch float64
	Step   float64

	// InterPenalty scales inter-node transfer time (backend-specific).
	InterPenalty float64

	// Channels caps how many channels one transfer requests (ccl config).
	Channels int
}

// Ranks returns the world size described by the topo.
func (t *Topo) Ranks() int { return len(t.NodeOf) }

// perFlowCap is the rate one transfer can drive on a link given the
// per-direction cap and the configured channel request.
func perFlowCap(chanBW float64, dirCh, cfgCh int) float64 {
	ch := dirCh
	if cfgCh > 0 && cfgCh < ch {
		ch = cfgCh
	}
	if ch < 1 {
		ch = 1
	}
	return float64(ch) * chanBW
}

// holCoeff calibrates the head-of-line convoy penalty: when the flows
// sharing an egress pool target ingress pools that are themselves fed by
// x other egress pools, a flow parked FIFO on a busy ingress keeps
// holding its egress grant, idling the NIC. Measured on the 4-node
// ThetaGPU alltoall (every ingress fed by 3 other egresses): observed
// 1.48× the saturation floor, i.e. utilization ≈ 1/(1+0.16·3).
const holCoeff = 0.16

// PhaseCost prices one phase: the bottleneck pool's drain time under the
// head-of-line utilization model, plus one α per serialized message on
// the critical path and the per-phase step cost.
func (t *Topo) PhaseCost(moves []Move) float64 {
	if len(moves) == 0 {
		return 0
	}
	type pool struct {
		bytes   float64
		flows   int
		targets map[int]bool // dst nodes (egress) / src nodes (ingress)
	}
	egress := map[int]*pool{}
	ingress := map[int]*pool{}
	intraBytes := map[int]float64{} // per device: local-link bytes moved
	get := func(m map[int]*pool, k int) *pool {
		p := m[k]
		if p == nil {
			p = &pool{targets: map[int]bool{}}
			m[k] = p
		}
		return p
	}
	// Serialized messages per (src,dst) pair: α charges per message on a
	// FIFO pair queue, and concurrent pairs overlap, so the α term is the
	// deepest pair queue.
	pairMsgs := map[[2]int]int{}
	maxPair := 0
	interSeen := false
	for _, m := range moves {
		if m.Bytes == 0 {
			continue
		}
		sn, dn := t.NodeOf[m.From], t.NodeOf[m.To]
		pairMsgs[[2]int{m.From, m.To}]++
		if pairMsgs[[2]int{m.From, m.To}] > maxPair {
			maxPair = pairMsgs[[2]int{m.From, m.To}]
		}
		if m.From == m.To {
			continue // local copy: negligible next to link time
		}
		if sn == dn {
			intraBytes[m.From] += float64(m.Bytes)
			intraBytes[m.To] += float64(m.Bytes)
			continue
		}
		interSeen = true
		e := get(egress, sn)
		e.bytes += float64(m.Bytes)
		e.flows++
		e.targets[dn] = true
		in := get(ingress, dn)
		in.bytes += float64(m.Bytes)
		in.flows++
		in.targets[sn] = true
	}
	// Cross-feed count per ingress pool: how many egress pools feed it.
	feeders := map[int]int{}
	for dn, p := range ingress {
		feeders[dn] = len(p.targets)
	}
	interCap := float64(t.InterTotalCh) * t.InterChanBW
	flowCap := perFlowCap(t.InterChanBW, t.InterDirCh, t.Channels)
	var worst float64
	for sn, p := range egress {
		// Convoy exposure: flows from this egress parked on ingress pools
		// that other egresses also feed.
		cross := 0
		for dn := range p.targets {
			if n := feeders[dn]; n > 1 {
				if n-1 > cross {
					cross = n - 1
				}
			}
		}
		util := 1.0 / (1.0 + holCoeff*float64(cross))
		rate := float64(p.flows) * flowCap
		if rate > interCap {
			rate = interCap
		}
		rate *= util
		if d := p.bytes / rate; d > worst {
			worst = d
		}
		_ = sn
	}
	for _, p := range ingress {
		rate := float64(p.flows) * flowCap
		if rate > interCap {
			rate = interCap
		}
		if d := p.bytes / rate; d > worst {
			worst = d
		}
	}
	worst *= t.InterPenalty
	intraFlowCap := perFlowCap(t.IntraChanBW, t.IntraDirCh, t.Channels)
	for _, b := range intraBytes {
		// Each endpoint device sees the sum of its local-link traffic.
		if d := b / intraFlowCap; d > worst {
			worst = d
		}
	}
	alpha := t.IntraAlpha
	if interSeen {
		alpha = t.InterAlpha * t.InterPenalty
	}
	return worst + alpha*float64(maxPair) + t.Step
}

// PlanCost prices a whole plan: launch once, then the phases. Fenced (or
// unpipelined) plans serialize every phase. Pipelined plans overlap their
// stage classes across rounds — the classic pipeline bound: the bottleneck
// stage runs end to end, and each other stage is exposed only for its
// first round (total/D).
func (t *Topo) PlanCost(p *Plan) float64 {
	c := t.Launch
	if p.PipeDepth > 1 {
		totals := map[int]float64{}
		for _, ph := range p.Phases {
			totals[ph.Stage] += t.PhaseCost(ph.Moves)
		}
		var bottleneck, rest float64
		for _, tot := range totals {
			if tot > bottleneck {
				bottleneck, rest = tot, rest+bottleneck
			} else {
				rest += tot
			}
		}
		return c + bottleneck + rest/float64(p.PipeDepth)
	}
	for _, ph := range p.Phases {
		c += t.PhaseCost(ph.Moves)
	}
	return c
}

// groups returns each node's ranks in ascending order, indexed by node.
func (t *Topo) groups() [][]int {
	g := make([][]int, t.Nodes)
	for r, n := range t.NodeOf {
		g[n] = append(g[n], r)
	}
	return g
}
