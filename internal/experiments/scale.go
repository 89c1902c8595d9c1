// Scale model: a hierarchical AllReduce at thousands of ranks, built
// directly on the sharded simulation engine. Unlike the paper exhibits —
// whose worlds share Go state freely across ranks and therefore run on one
// shard — this model is partitioned from the ground up: every node's
// processes, buffers, fabric pools, and fault state live on the shard that
// owns the node (topology.Partition, node-aligned), and the only cross-shard
// interaction is the leader ring's inter-node hop, carried as timestamped
// engine injections priced by the pure α–β formula (fabric.Sharded.InterTime).
// Each injection carries its chunk (digest and validity bit) by value to the
// ring link's one long-lived receiver (ringLink), so a hop allocates nothing.
//
// The collective is the PR 5 hierarchical decomposition writ large:
//
//	intra-node binomial reduce tree  →  inter-node leader ring  →  intra-node binomial fan-out
//
// Payload bytes are not moved: each rank carries a uint64 digest
// (splitmix64 of its world rank) and the full message cost is priced on the
// links — a staged first hop through the shard-local fabric's contention
// pools plus the pipelined remainder at channel rate. Every rank's final
// digest must equal the closed-form sum over all ranks, which proves
// cross-shard delivery end to end; the virtual clock must agree bit-exactly
// at every shard count, which the determinism tests assert.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"mpixccl/internal/fabric"
	"mpixccl/internal/fault"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// intraFirstStage is the byte length of an intra-node hop's first stage.
// That stage is priced through the contention pools (no bytes move); the
// remainder is priced as a pipelined tail.
const intraFirstStage = 32 << 10

// ringRecvTimeout is the ring-receive watchdog armed when a run carries
// faults.
const ringRecvTimeout = 2 * time.Millisecond

// ScaleConfig parameterizes one scale-model run.
type ScaleConfig struct {
	// System is the topology preset ("thetagpu", "mri", "voyager",
	// "aurora"); default thetagpu.
	System string
	// Ranks is the total device count; must be a multiple of the preset's
	// devices per node. Default 4096.
	Ranks int
	// Shards is the engine partition width; default 1 (serial).
	Shards int
	// Bytes is the modeled per-rank message size; default 4 MiB.
	Bytes int64
	// Seed salts the per-rank digests. Default 1.
	Seed uint64
	// Faults, when set, is called once per shard and must return
	// identically-parameterized fault plans (state is shard-local; rules on
	// cross-shard links must be pure time-window rules — see
	// docs/ARCHITECTURE.md "Parallel simulation"). Crash rules target
	// global node indices (the ring leaders); link/corrupt rules use class
	// "inter" with global node indices; partition rules must be node-scoped
	// (Nodes, global indices) with Probability 0 — the ring consults only
	// the pure Severed/PartitionedUntil window queries.
	Faults func(shard int) *fault.Plan
}

// ScaleResult is the outcome of one scale-model run.
type ScaleResult struct {
	System               string
	Ranks, Nodes, Shards int
	Bytes                int64
	// VirtTime is the virtual completion time (identical across shard
	// counts); Wall is the host wall-clock the run took.
	VirtTime time.Duration
	Wall     time.Duration
	// OK reports that every rank converged to the closed-form digest.
	OK bool
	// BadRanks counts ranks whose digest mismatched or arrived tainted.
	BadRanks int
	// Crashed lists ring leaders (global node indices) that fail-stopped.
	Crashed []int
	// Timeouts counts ring receives that hit the detection watchdog
	// (crashed or upstream-broken predecessors).
	Timeouts int
	// Degraded counts ring sends priced under a brownout window.
	Degraded int
	// CorruptionsDetected / Retransmits / Unrecovered mirror the fabric's
	// integrity counters for the ring's cross-node hops.
	CorruptionsDetected int
	Retransmits         int
	Unrecovered         int
	// Dropped counts ring messages discarded at a stalled peer's full
	// mailbox (only possible once a fault has broken the ring downstream).
	Dropped int
	// Severed counts ring sends that found the route cut by a partition
	// rule. A healing cut holds the chunk and delivers it after the heal
	// (the run finishes late but OK); a permanent cut loses the chunk and
	// the ring breaks downstream.
	Severed int
}

// ringMsg is the leader-ring payload: an accumulating digest plus a
// validity bit that taints downstream sums when corruption goes
// unrecovered.
type ringMsg struct {
	val   uint64
	valid bool
}

// ringLink is the receiving end of one leader-ring edge: every chunk a
// leader sends its successor is delivered through the same link, the
// payload (digest, validity) travelling by value in the injection. Deliver
// runs on the receiving shard, so drops are counted in that shard's stats.
type ringLink struct {
	mail  *sim.Chan[ringMsg]
	stats *shardStats
}

// Deliver puts one chunk in the successor's mailbox. A stalled
// (ring-broken) peer may stop draining it; dropping models the NIC
// discarding to a hung receiver and is deterministic in virtual time.
func (l *ringLink) Deliver(val, valid uint64) {
	if !l.mail.TrySend(ringMsg{val: val, valid: valid != 0}) {
		l.stats.dropped++
	}
}

// shardStats are per-shard fault counters, merged in shard order after the
// run (each instance is touched only by its shard's processes).
type shardStats struct {
	timeouts    int
	degraded    int
	detected    int
	retransmits int
	unrecovered int
	dropped     int
	severed     int
	crashed     []int
	// finish is the latest p.Now() observed by any of this shard's
	// processes. The result's VirtTime is the max across shards: measuring
	// inside processes (per the sim timeout contract) keeps the number
	// independent of stale-watchdog clock drift, which varies with
	// same-instant tie order and hence with the shard count.
	finish sim.Time
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

const scaleMaxRetries = 2

func (c *ScaleConfig) fillDefaults() {
	if c.System == "" {
		c.System = "thetagpu"
	}
	if c.Ranks == 0 {
		c.Ranks = 4096
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Bytes == 0 {
		c.Bytes = 4 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// RunScale executes the scale model and reports the result.
func RunScale(cfg ScaleConfig) (ScaleResult, error) {
	cfg.fillDefaults()
	tcfg, err := topology.PresetConfig(cfg.System, 1)
	if err != nil {
		return ScaleResult{}, err
	}
	dpn := tcfg.DevicesPerNode
	if cfg.Ranks%dpn != 0 {
		return ScaleResult{}, fmt.Errorf("scale: %d ranks not a multiple of %s's %d devices/node", cfg.Ranks, cfg.System, dpn)
	}
	nodes := cfg.Ranks / dpn
	part := topology.PartitionNodes(nodes, cfg.Shards)
	eng := sim.NewSharded(part.Shards, part.Lookahead(tcfg.Inter))
	defer eng.Close()
	tcfg.NumNodes = nodes // NewSharded fabric re-slices per shard
	sf := fabric.NewSharded(eng, tcfg, part)

	// Shared arrays indexed by global rank / node. Disjoint index ranges per
	// shard: element i is touched only by processes of the shard owning it,
	// so there is no cross-thread sharing; the final read happens after
	// engine.Run returns.
	acc := make([]uint64, cfg.Ranks) // per-rank digest accumulator
	accOK := make([]bool, cfg.Ranks) // validity (taint) flag
	mail := make([]*sim.Chan[ringMsg], nodes)
	stats := make([]*shardStats, part.Shards)
	plans := make([]*fault.Plan, part.Shards)
	for s := 0; s < part.Shards; s++ {
		stats[s] = &shardStats{}
		if cfg.Faults != nil {
			plans[s] = cfg.Faults(s)
		}
	}
	for g := 0; g < nodes; g++ {
		mail[g] = sim.NewChan[ringMsg](eng.Kernel(part.ShardOf(g)), 8)
	}

	// Binomial-tree levels covering dpn devices.
	levels := 0
	for 1<<levels < dpn {
		levels++
	}

	// intraHop prices one full-message device-to-device hop inside a node:
	// the first stage goes through the shard-local fabric (α + contention
	// pools), the remainder is a pipelined tail at channel rate.
	intra := tcfg.Intra
	intraCh := intra.DirChannels
	tailBW := float64(intraCh) * intra.ChannelBW
	start := time.Now()

	for g := 0; g < nodes; g++ {
		g := g
		sh := part.ShardOf(g)
		k := eng.Kernel(sh)
		fab := sf.Fabric(sh)
		plan := plans[sh]
		local := part.LocalNode(g)
		devs := sf.System(sh).Nodes[local].Devices
		sent := make([]*sim.Event, dpn)
		ready := make([]*sim.Event, dpn)
		for d := 0; d < dpn; d++ {
			sent[d] = sim.NewEvent(k)
			ready[d] = sim.NewEvent(k)
		}
		intraHop := func(p *sim.Proc, from, to int) {
			first := cfg.Bytes
			if first > intraFirstStage {
				first = intraFirstStage
			}
			if _, err := fab.Price(p, devs[to], devs[from], first, fabric.Opts{Channels: intraCh}); err != nil {
				panic(err) // intra-node devices always have a route
			}
			if rem := cfg.Bytes - first; rem > 0 {
				p.Sleep(time.Duration(float64(rem) / tailBW * float64(time.Second)))
			}
		}
		for d := 0; d < dpn; d++ {
			d := d
			rank := g*dpn + d
			acc[rank] = splitmix64(cfg.Seed + uint64(rank))
			accOK[rank] = true
			// entry is the lowest set-bit level of the local index: the tree
			// level at which this device hands its subtree sum upward.
			entry := levels
			if d != 0 {
				entry = 0
				for d&(1<<entry) == 0 {
					entry++
				}
			}
			k.Spawn(fmt.Sprintf("n%d.d%d", g, d), func(p *sim.Proc) {
				// Phase 1: binomial reduce toward device 0.
				for lvl := 0; lvl < entry; lvl++ {
					partner := d + 1<<lvl
					if partner >= dpn {
						continue
					}
					sent[partner].Wait(p)
					p.Sleep(devs[d].ReduceTime(cfg.Bytes))
					acc[rank] += acc[g*dpn+partner]
					if !accOK[g*dpn+partner] {
						accOK[rank] = false
					}
				}
				if d != 0 {
					intraHop(p, d, d-1<<entry)
					sent[d].Fire()
				} else {
					// Phase 2: device 0 is the node leader on the ring.
					runScaleRing(p, eng, sf, &cfg, g, nodes, sh, mail, stats, plan,
						&acc[rank], &accOK[rank])
				}
				// Phase 3: binomial fan-out of the reduced digest.
				if d != 0 {
					ready[d].Wait(p)
				}
				for lvl := entry - 1; lvl >= 0; lvl-- {
					partner := d + 1<<lvl
					if partner >= dpn {
						continue
					}
					intraHop(p, d, partner)
					acc[g*dpn+partner] = acc[rank]
					accOK[g*dpn+partner] = accOK[rank]
					ready[partner].Fire()
				}
				if t := p.Now(); t > stats[sh].finish {
					stats[sh].finish = t
				}
			})
		}
	}

	if err := eng.Run(); err != nil {
		return ScaleResult{}, err
	}

	res := ScaleResult{
		System: cfg.System, Ranks: cfg.Ranks, Nodes: nodes, Shards: part.Shards,
		Bytes: cfg.Bytes, Wall: time.Since(start),
	}
	// VirtTime is the latest process-observed instant, not eng.Now(): the
	// drained clock includes stale watchdog timers whose presence depends on
	// same-instant tie order, which varies with the shard count.
	for _, st := range stats {
		if st.finish > res.VirtTime {
			res.VirtTime = st.finish
		}
	}
	var want uint64
	for r := 0; r < cfg.Ranks; r++ {
		want += splitmix64(cfg.Seed + uint64(r))
	}
	for r := 0; r < cfg.Ranks; r++ {
		if !accOK[r] || acc[r] != want {
			res.BadRanks++
		}
	}
	res.OK = res.BadRanks == 0
	for _, st := range stats {
		res.Timeouts += st.timeouts
		res.Degraded += st.degraded
		res.CorruptionsDetected += st.detected
		res.Retransmits += st.retransmits
		res.Unrecovered += st.unrecovered
		res.Dropped += st.dropped
		res.Severed += st.severed
		res.Crashed = append(res.Crashed, st.crashed...)
	}
	return res, nil
}

// runScaleRing runs one leader's part of the inter-node ring: 2(N-1) steps
// of chunked sends, the first N-1 of which accumulate the global digest.
// Every hop — same-shard or not — goes through engine injection with
// identical α–β pricing, so virtual times and tie order are independent of
// the shard count.
func runScaleRing(p *sim.Proc, eng *sim.Sharded, sf *fabric.Sharded, cfg *ScaleConfig,
	g, nodes, sh int, mail []*sim.Chan[ringMsg], stats []*shardStats, plan *fault.Plan,
	acc *uint64, accOK *bool) {
	if nodes == 1 {
		return
	}
	st := stats[sh]
	next := (g + 1) % nodes
	nextShard := sf.Partition().ShardOf(next)
	link := &ringLink{mail: mail[next], stats: stats[nextShard]}
	chunk := cfg.Bytes / int64(nodes)
	if chunk < 1 {
		chunk = 1
	}
	carry, cvalid := *acc, *accOK
	sum, sumOK := *acc, *accOK
	alive := true
	held := 0
	for step := 0; step < 2*(nodes-1); step++ {
		if alive && plan != nil && plan.OpCrash("scale", "allreduce", g, p.Now()) {
			alive = false
			st.crashed = append(st.crashed, g)
		}
		if !alive {
			break
		}
		// A severed route (node-scoped partition rule, pure time-window
		// query) either loses the chunk — a permanent cut breaks the ring
		// and the downstream receive times out — or, when the cut heals,
		// the NIC holds the chunk and delivers it after the heal. The
		// sender does not block (its own mailbox keeps draining); held
		// chunks are staggered a full hop apart so their arrival order and
		// the receiver's drain rate are deterministic at any shard count.
		lost, healAt := false, time.Duration(0)
		if plan != nil && plan.Severed(g, next, p.Now()) {
			st.severed++
			if until, heals := plan.PartitionedUntil(p.Now()); heals && until > p.Now() {
				healAt = until
			} else {
				lost = true
			}
		}
		// Send this step's chunk to the successor — unless the successor is
		// known dead (pure liveness query; models the NIC's peer-down state).
		if !lost && (plan == nil || !plan.RankDead(next, p.Now())) {
			var lf fabric.LinkFault
			degraded := false
			if plan != nil {
				lf, degraded = plan.DegradedLink("inter", g, next, p.Now())
				if degraded {
					st.degraded++
				}
			}
			ser, alpha := sf.InterTime(chunk, sf.Inter().DirChannels, lf, degraded)
			p.Sleep(ser)
			valid := cvalid
			if plan != nil {
				// Detect-and-retransmit against corruption, mirroring the
				// fabric's integrity loop: each attempt re-probes, each
				// retransmit re-pays the wire.
				for attempt := 0; ; attempt++ {
					if len(plan.CorruptTransfer("inter", g, next, chunk, p.Now())) == 0 {
						break
					}
					st.detected++
					if attempt >= scaleMaxRetries {
						st.unrecovered++
						valid = false
						break
					}
					st.retransmits++
					p.Sleep(ser + alpha)
				}
			}
			deliver := p.Now() + alpha
			if healAt > 0 {
				held++
				if d := healAt + time.Duration(held)*(ser+alpha); d > deliver {
					deliver = d
				}
			}
			var ok uint64
			if valid {
				ok = 1
			}
			eng.Inject(sh, nextShard, deliver, link, carry, ok)
		}
		// Receive the predecessor's chunk.
		var m ringMsg
		if plan != nil {
			var got bool
			m, got = mail[g].RecvTimeout(p, ringRecvTimeout)
			if !got {
				st.timeouts++
				alive = false
				sumOK = false
				break
			}
		} else {
			m = mail[g].Recv(p)
		}
		if step < nodes-1 {
			sum += m.val
			if !m.valid {
				sumOK = false
			}
		}
		carry, cvalid = m.val, m.valid
	}
	*acc, *accOK = sum, sumOK && alive
}

// FormatScaleTable renders a ranks × shards sweep as the CLI table.
func FormatScaleTable(results []ScaleResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Scale: hierarchical AllReduce sweep (%s)\n", results[0].System)
	fmt.Fprintf(&b, "%8s %8s %8s %12s %14s %12s %8s\n",
		"ranks", "nodes", "shards", "msg", "virt-time", "wall", "check")
	for _, r := range results {
		check := "ok"
		if !r.OK {
			check = fmt.Sprintf("BAD:%d", r.BadRanks)
		}
		fmt.Fprintf(&b, "%8d %8d %8d %12s %14v %12v %8s\n",
			r.Ranks, r.Nodes, r.Shards, fmtBytes(r.Bytes), r.VirtTime,
			r.Wall.Round(time.Millisecond), check)
	}
	return b.String()
}

func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKiB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
