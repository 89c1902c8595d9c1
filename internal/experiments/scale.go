// Scale model: a hierarchical AllReduce at thousands of ranks, built
// directly on the sharded simulation engine. Unlike the paper exhibits —
// whose worlds share Go state freely across ranks and therefore run on one
// shard — this model is partitioned from the ground up: every node's
// processes, buffers, fabric pools, and fault state live on the shard that
// owns the node (topology.Partition, node-aligned), and the only cross-shard
// interaction is the leader ring's inter-node hop, carried as timestamped
// engine injections priced by the pure α–β formula (fabric.Sharded.InterTime).
// Each injection carries its chunk (digest and validity bit) by value to the
// successor leader's mailbox, its one long-lived receiver (scaleLeader), so
// a hop allocates nothing.
//
// Each rank is written once, as a machine (scaleRank, a sim.Machine) that
// the rank's process drives (sim.Proc.Drive): the machine advances in the
// kernel at each of its waits, and the process resumes twice per call, when
// it starts and when the rank is done. A call keeps every rank's and every
// leader's state in one slice each.
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

	"mpixccl/internal/device"
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

// shardStats are per-shard fault counters, merged in shard order after the
// run (each instance is touched only by its shard's ranks and deliveries).
type shardStats struct {
	timeouts    int
	degraded    int
	detected    int
	retransmits int
	unrecovered int
	dropped     int
	severed     int
	crashed     []int
	// finish is the latest instant at which one of this shard's ranks
	// finished, read at each rank machine's last step. The result's
	// VirtTime is the max across shards: measuring at the ranks (per the
	// sim timeout contract) keeps the number independent of stale-watchdog
	// clock drift, which varies with same-instant tie order and hence with
	// the shard count.
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
	w, err := newScaleWorld(cfg)
	if err != nil {
		return ScaleResult{}, err
	}
	defer w.eng.Close()
	return w.run()
}

// scaleWorld is one RunScale call: the sharded engine and fabric, each
// shard's kernel, fault plan and counters, and the state of every rank and
// every ring leader, each kept in one slice indexed by global rank or
// node. An element is touched only on the shard that owns its node (a ring
// chunk reaches a leader's mailbox as an engine injection delivered on the
// leader's shard), so no state is shared across threads; run reads the
// digests after the engine returns.
type scaleWorld struct {
	cfg     ScaleConfig
	eng     *sim.Sharded
	sf      *fabric.Sharded
	dpn     int
	nodes   int
	levels  int // binomial-tree levels covering dpn devices
	shards  []scaleShard
	ranks   []scaleRank
	leaders []scaleLeader
	devs    [][]*device.Device // each node's devices

	// An intra-node hop prices its first stage (first bytes) through the
	// shard-local fabric's contention pools (hopOpts); the remainder (rem
	// bytes) is a pipelined tail at channel rate, held for tail.
	first, rem int64
	tail       time.Duration
	hopOpts    fabric.Opts
	// chunk is the bytes one ring step sends.
	chunk int64
}

// scaleShard is what the ranks of one shard share.
type scaleShard struct {
	id    int
	k     *sim.Kernel
	fab   *fabric.Fabric
	plan  *fault.Plan
	stats shardStats
	// xfers holds the shard's idle hop transfers: a rank holds one only
	// while it hops.
	xfers []*fabric.Xfer
}

// newScaleWorld builds the world of one call, its ranks ready to spawn.
func newScaleWorld(cfg ScaleConfig) (*scaleWorld, error) {
	cfg.fillDefaults()
	tcfg, err := topology.PresetConfig(cfg.System, 1)
	if err != nil {
		return nil, err
	}
	dpn := tcfg.DevicesPerNode
	if cfg.Ranks%dpn != 0 {
		return nil, fmt.Errorf("scale: %d ranks not a multiple of %s's %d devices/node", cfg.Ranks, cfg.System, dpn)
	}
	nodes := cfg.Ranks / dpn
	part := topology.PartitionNodes(nodes, cfg.Shards)
	eng := sim.NewSharded(part.Shards, part.Lookahead(tcfg.Inter))
	tcfg.NumNodes = nodes // NewSharded fabric re-slices per shard
	w := &scaleWorld{
		cfg: cfg, eng: eng, sf: fabric.NewSharded(eng, tcfg, part),
		dpn: dpn, nodes: nodes,
		shards:  make([]scaleShard, part.Shards),
		ranks:   make([]scaleRank, cfg.Ranks),
		leaders: make([]scaleLeader, nodes),
		devs:    make([][]*device.Device, nodes),
		first:   min(cfg.Bytes, intraFirstStage),
		hopOpts: fabric.Opts{Channels: tcfg.Intra.DirChannels},
		chunk:   max(cfg.Bytes/int64(nodes), 1),
	}
	w.rem = cfg.Bytes - w.first
	tailBW := float64(tcfg.Intra.DirChannels) * tcfg.Intra.ChannelBW
	w.tail = time.Duration(float64(w.rem) / tailBW * float64(time.Second))
	for 1<<w.levels < dpn {
		w.levels++
	}
	for i := range w.shards {
		sh := &w.shards[i]
		sh.id, sh.k, sh.fab = i, eng.Kernel(i), w.sf.Fabric(i)
		if cfg.Faults != nil {
			sh.plan = cfg.Faults(i)
		}
	}
	for g := 0; g < nodes; g++ {
		sh := &w.shards[part.ShardOf(g)]
		next := (g + 1) % nodes
		w.leaders[g] = scaleLeader{sh: sh, next: next, nextShard: part.ShardOf(next)}
		w.devs[g] = w.sf.System(sh.id).Nodes[part.LocalNode(g)].Devices
		for d := 0; d < dpn; d++ {
			rank := g*dpn + d
			// entry is the lowest set-bit level of the local index: the
			// tree level at which this device hands its subtree sum upward.
			entry := w.levels
			if d != 0 {
				entry = 0
				for d&(1<<entry) == 0 {
					entry++
				}
			}
			w.ranks[rank] = scaleRank{w: w, sh: sh, rank: rank, node: g, dev: d, entry: entry,
				acc: splitmix64(cfg.Seed + uint64(rank)), ok: true}
		}
	}
	return w, nil
}

// run spawns one process per rank, each driving its rank's machine, runs
// the engine, and checks every rank's digest.
func (w *scaleWorld) run() (ScaleResult, error) {
	cfg := w.cfg
	start := time.Now()
	for i := range w.shards {
		sh := &w.shards[i]
		lo, hi := w.sf.Partition().NodeRange(i)
		// Processes first run in the order they are spawned, which is
		// rank order on the shard.
		started := lo * w.dpn
		drive := func(p *sim.Proc) {
			r := &w.ranks[started]
			started++
			p.Drive(r)
		}
		for g := lo; g < hi; g++ {
			for d := 0; d < w.dpn; d++ {
				sh.k.Spawn(fmt.Sprintf("n%d.d%d", g, d), drive)
			}
		}
	}
	if err := w.eng.Run(); err != nil {
		return ScaleResult{}, err
	}

	res := ScaleResult{
		System: cfg.System, Ranks: cfg.Ranks, Nodes: w.nodes, Shards: len(w.shards),
		Bytes: cfg.Bytes, Wall: time.Since(start),
	}
	// VirtTime is the latest rank-observed instant, not eng.Now(): the
	// drained clock includes stale watchdog timers whose presence depends on
	// same-instant tie order, which varies with the shard count.
	for i := range w.shards {
		res.VirtTime = max(res.VirtTime, w.shards[i].stats.finish)
	}
	var want uint64
	for r := 0; r < cfg.Ranks; r++ {
		want += splitmix64(cfg.Seed + uint64(r))
	}
	for i := range w.ranks {
		if r := &w.ranks[i]; !r.ok || r.acc != want {
			res.BadRanks++
		}
	}
	res.OK = res.BadRanks == 0
	for i := range w.shards {
		st := &w.shards[i].stats
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

// scaleRank is one rank's part of the allreduce, written as a machine
// (sim.Machine) that the rank's process drives (sim.Proc.Drive): the
// binomial reduce toward device 0, the leader's ring (scaleLeader), and the
// binomial fan-out. Each wait is the one the blocking form of the step
// would park on, so the process resumes twice, when it starts and when
// the machine is done.
type scaleRank struct {
	w     *scaleWorld
	sh    *scaleShard
	rank  int
	node  int
	dev   int
	entry int    // the tree level at which the rank hands its sum up (levels at the leader)
	acc   uint64 // the digest accumulator
	ok    bool   // false once a tainted sum reached the rank

	// sent fires when the rank's subtree sum has reached its parent,
	// ready when the reduced digest has reached the rank.
	sent, ready sim.Event

	pc   rankStep
	lvl  int          // the tree level in progress
	hop  *fabric.Xfer // the intra-node hop in flight
	then rankStep     // where the machine goes once the hop is done
}

// rankStep is where a rank's Advance resumes.
type rankStep uint8

const (
	rankFanIn  rankStep = iota // wait for the next level's partner's sum, or hand the sum up
	rankReduce                 // the partner's sum is in: charge the reduce
	rankAdd                    // add the partner's sum
	rankSent                   // the sum reached the parent: fire sent, wait for ready
	rankRing                   // the leader's ring
	rankFanOut                 // hop the digest to the next level's partner, or finish
	rankHanded                 // the digest reached the partner: fire its ready
	rankHop                    // forward the hop's transfer, then hold its tail
)

// Advance runs the rank up to its next wait and returns it, or returns the
// zero wait once the rank holds the reduced digest and has passed it on.
func (r *scaleRank) Advance() sim.Wait {
	w := r.w
	for {
		switch r.pc {
		case rankFanIn:
			switch {
			case r.lvl == r.entry && r.dev == 0:
				w.leaders[r.node].start(r)
				r.pc = rankRing
			case r.lvl == r.entry:
				r.startHop(r.dev-1<<r.entry, rankSent)
			case r.dev+1<<r.lvl >= w.dpn:
				r.lvl++
			default:
				r.pc = rankReduce
				return sim.Await(&w.ranks[r.rank+1<<r.lvl].sent)
			}
		case rankReduce:
			r.pc = rankAdd
			return sim.Sleep(w.devs[r.node][r.dev].ReduceTime(w.cfg.Bytes))
		case rankAdd:
			c := &w.ranks[r.rank+1<<r.lvl]
			r.acc += c.acc
			r.ok = r.ok && c.ok
			r.lvl++
			r.pc = rankFanIn
		case rankSent:
			r.sent.Fire()
			r.pc = rankFanOut
			return sim.Await(&r.ready)
		case rankRing:
			if wt := w.leaders[r.node].advance(r); !wt.Done() {
				return wt
			}
			r.pc = rankFanOut
		case rankFanOut:
			if r.lvl == 0 {
				if t := r.sh.k.Now(); t > r.sh.stats.finish {
					r.sh.stats.finish = t
				}
				return sim.Wait{}
			}
			if r.lvl--; r.dev+1<<r.lvl < w.dpn {
				r.startHop(r.dev+1<<r.lvl, rankHanded)
			}
		case rankHanded:
			c := &w.ranks[r.rank+1<<r.lvl]
			c.acc, c.ok = r.acc, r.ok
			c.ready.Fire()
			r.pc = rankFanOut
		case rankHop:
			if wt := r.hop.Advance(); !wt.Done() {
				return wt
			}
			r.sh.xfers = append(r.sh.xfers, r.hop)
			r.hop, r.pc = nil, r.then
			if w.rem > 0 {
				return sim.Sleep(w.tail)
			}
		}
	}
}

// startHop opens the full-message hop from the rank's device to device to
// of its node, which the machine forwards and then, at then, goes on.
func (r *scaleRank) startHop(to int, then rankStep) {
	sh := r.sh
	if n := len(sh.xfers); n > 0 {
		r.hop, sh.xfers = sh.xfers[n-1], sh.xfers[:n-1]
	} else {
		r.hop = new(fabric.Xfer)
	}
	devs := r.w.devs[r.node]
	if err := sh.fab.OpenPrice(r.hop, devs[to], devs[r.dev], r.w.first, r.w.hopOpts); err != nil {
		panic(err) // intra-node devices always have a route
	}
	r.pc, r.then = rankHop, then
}

// ringMailbox is a leader mailbox's capacity.
const ringMailbox = 8

// scaleLeader is one node leader's part of the inter-node ring, which the
// leader rank's machine runs, together with the leader's mailbox: the
// long-lived receiver (sim.Receiver) of every chunk its predecessor
// injects. Each of the ring's 2(N-1) steps sends the successor a chunk and
// receives one from the predecessor; the first N-1 accumulate the global
// digest. Every hop, same-shard or not, goes through engine injection with
// identical α–β pricing, so virtual times and tie order are independent of
// the shard count.
type scaleLeader struct {
	sh        *scaleShard // the leader's shard
	next      int         // the successor's node
	nextShard int

	pc            ringStep
	step          int
	carry, sum    uint64 // the chunk to send, the digest so far
	cvalid, sumOK bool   // sumOK turns false too when the leader crashes or times out

	// The step's send: its wire time and α, its validity, the corruption
	// probe's attempt, and the instant a healing cut releases the chunk
	// (zero when none); held counts the chunks cuts have held so far.
	ser, alpha time.Duration
	valid      bool
	attempt    int
	healAt     time.Duration
	held       int

	// The mailbox holds up to ringMailbox chunks, n of them from head on.
	// A blocked receive is pending until Deliver hands it a chunk (got) or
	// the watchdog times it out (timedOut); either fires wake. armed and
	// expired count the watchdog timers armed and run.
	buf            [ringMailbox]ringMsg
	head, n        int
	got            ringMsg
	wake           sim.Event
	pending        bool
	timedOut       bool
	armed, expired int
}

// ringStep is where a leader's advance resumes.
type ringStep uint8

const (
	ringNext  ringStep = iota // start the next step, or end the ring
	ringProbe                 // the chunk's wire time is up: probe for corruption, then inject it
	ringRecv                  // receive the predecessor's chunk
	ringWoke                  // a blocked receive got a chunk or timed out
	ringEnd                   // store the result in the leader rank
)

// start readies the ring for leader rank r, which holds its node's sum.
func (l *scaleLeader) start(r *scaleRank) {
	l.carry, l.cvalid = r.acc, r.ok
	l.sum, l.sumOK = r.acc, r.ok
}

// advance runs the ring of leader rank r up to its next wait and returns
// it, or returns the zero wait once the ring is over for the leader.
func (l *scaleLeader) advance(r *scaleRank) sim.Wait {
	w, sh := r.w, l.sh
	plan, st, g := sh.plan, &sh.stats, r.node
	for {
		now := sh.k.Now()
		switch l.pc {
		case ringNext:
			if l.step == 2*(w.nodes-1) {
				l.pc = ringEnd
				continue
			}
			if plan != nil && plan.OpCrash("scale", "allreduce", g, now) {
				st.crashed = append(st.crashed, g)
				l.sumOK, l.pc = false, ringEnd
				continue
			}
			// A severed route (node-scoped partition rule, pure time-window
			// query) either loses the chunk — a permanent cut breaks the
			// ring and the downstream receive times out — or, when the cut
			// heals, the NIC holds the chunk and delivers it after the
			// heal. The sender does not block (its own mailbox keeps
			// draining); held chunks are staggered a full hop apart so
			// their arrival order and the receiver's drain rate are
			// deterministic at any shard count.
			lost := false
			l.healAt = 0
			if plan != nil && plan.Severed(g, l.next, now) {
				st.severed++
				if until, heals := plan.PartitionedUntil(now); heals && until > now {
					l.healAt = until
				} else {
					lost = true
				}
			}
			// Send this step's chunk to the successor — unless the
			// successor is known dead (pure liveness query; models the
			// NIC's peer-down state).
			l.pc = ringRecv
			if lost || plan != nil && plan.RankDead(l.next, now) {
				continue
			}
			var lf fabric.LinkFault
			degraded := false
			if plan != nil {
				if lf, degraded = plan.DegradedLink("inter", g, l.next, now); degraded {
					st.degraded++
				}
			}
			l.ser, l.alpha = w.sf.InterTime(w.chunk, w.sf.Inter().DirChannels, lf, degraded)
			l.valid, l.attempt, l.pc = l.cvalid, 0, ringProbe
			return sim.Sleep(l.ser)
		case ringProbe:
			// Detect-and-retransmit against corruption, mirroring the
			// fabric's integrity loop: each attempt re-probes, each
			// retransmit re-pays the wire.
			if plan != nil && len(plan.CorruptTransfer("inter", g, l.next, w.chunk, now)) > 0 {
				st.detected++
				if l.attempt < scaleMaxRetries {
					st.retransmits++
					l.attempt++
					return sim.Sleep(l.ser + l.alpha)
				}
				st.unrecovered++
				l.valid = false
			}
			deliver := now + l.alpha
			if l.healAt > 0 {
				l.held++
				deliver = max(deliver, l.healAt+time.Duration(l.held)*(l.ser+l.alpha))
			}
			var ok uint64
			if l.valid {
				ok = 1
			}
			w.eng.Inject(sh.id, l.nextShard, deliver, &w.leaders[l.next], l.carry, ok)
			l.pc = ringRecv
		case ringRecv:
			if l.n > 0 {
				m := l.buf[l.head]
				l.head, l.n = (l.head+1)%ringMailbox, l.n-1
				l.take(m, w.nodes)
				continue
			}
			// Block; a run with faults arms the watchdog.
			l.pending, l.timedOut = true, false
			l.wake.Reset()
			if plan != nil {
				l.armed++
				sh.k.After(ringRecvTimeout, l.expire)
			}
			l.pc = ringWoke
			return sim.Await(&l.wake)
		case ringWoke:
			if l.timedOut {
				st.timeouts++
				l.sumOK, l.pc = false, ringEnd
				continue
			}
			l.take(l.got, w.nodes)
		case ringEnd:
			r.acc, r.ok = l.sum, l.sumOK
			return sim.Wait{}
		}
	}
}

// take consumes the predecessor's chunk m and ends the step.
func (l *scaleLeader) take(m ringMsg, nodes int) {
	if l.step < nodes-1 {
		l.sum += m.val
		l.sumOK = l.sumOK && m.valid
	}
	l.carry, l.cvalid = m.val, m.valid
	l.step++
	l.pc = ringNext
}

// Deliver is the predecessor's chunk arriving, on the leader's shard: it
// goes to a blocked receive, else into the mailbox. A stalled (ring-broken)
// leader may stop draining it; a chunk that finds it full is dropped, which
// models the NIC discarding to a hung receiver and is deterministic in
// virtual time.
func (l *scaleLeader) Deliver(val, valid uint64) {
	m := ringMsg{val: val, valid: valid != 0}
	switch {
	case l.pending:
		l.pending, l.got = false, m
		l.wake.Fire()
	case l.n < ringMailbox:
		l.buf[(l.head+l.n)%ringMailbox] = m
		l.n++
	default:
		l.sh.stats.dropped++
	}
}

// expire is a watchdog timer running out. Timers cannot be cancelled, and
// they run in the order they were armed, so only the latest one speaks for
// the receive in progress: it times the receive out if it is still
// pending, and a stale timer does nothing.
func (l *scaleLeader) expire() {
	l.expired++
	if l.expired == l.armed && l.pending {
		l.pending, l.timedOut = false, true
		l.wake.Fire()
	}
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
