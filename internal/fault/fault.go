// Package fault provides deterministic, seeded fault plans for the
// simulated xCCL stack. A Plan is a list of declarative rules scoped by
// backend, operation, rank, call count, virtual-time window, and
// probability. It attaches to a world in one place, its fabric
// (fabric.Fabric.SetFaults), beside the world's integrity setting and
// metrics registry; communicators built on that fabric afterwards pick it
// up. It implements every injection hook the runtime exposes:
//
//   - ccl.Injector — per-call CCL errors (transient xcclRemoteError or
//     persistent xcclInternalError), straggler latency, and communicator-
//     init failures. A broken library build (the paper's §4.4 NCCL
//     2.18.3) is one Rule with Result ccl.ErrInternal and no scope.
//   - fabric.Degrader — link-degradation windows that scale a link class's
//     α/bandwidth or cap its channel grant over a virtual-time interval.
//   - fabric.FailStop — fail-stop crash rules (Rule.Crash) that kill a rank
//     permanently at a virtual time or after a call budget; the collective
//     watchdog, the heartbeat failure detector, and the ULFM-style shrink in
//     internal/core consume this hook.
//   - fabric.Corrupter — payload-corruption rules (CorruptRule) that flip
//     bytes of matching fabric data transfers, the silent-data-corruption
//     model the fabric's CRC32C integrity checking defends against.
//   - fabric.Partitioner — network-partition rules (PartitionRule) that cut
//     the fabric along a node or rank-set bipartition over a virtual-time
//     window, with an optional heal time. The fabric fails cross-cut
//     transfers fast, and the quorum membership layer in internal/core
//     (epoch bumps, minority fencing, heal-and-rejoin) consumes the pure
//     Severed/RanksSevered/PartitionedUntil queries.
//
// Determinism: all probabilistic decisions come from one splitmix64 stream
// seeded at construction, advanced once per probabilistic match, so two
// plans with the same seed driving the same simulation fire identically.
// Partition rules draw their Probability coin once, at AddPartitionRule
// time — an active cut must answer every Severed query the same way no
// matter which shard (or rank) asks first.
package fault

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/fabric"
)

// Point names the call site a Rule applies to.
type Point int

const (
	// OpCall injects at collective and point-to-point call sites.
	OpCall Point = iota
	// CommInit injects at communicator creation.
	CommInit
)

// Rule is one fault-injection rule. Zero-valued scope fields match
// everything; a rule fires when every set field matches. A rule should
// inject either an error (Result != Success) or straggler latency
// (Delay > 0), not both — each is consumed by a different hook and they
// would share one call budget.
type Rule struct {
	// Name labels the rule for Fired-count introspection.
	Name string
	// Point selects the call site (OpCall or CommInit).
	Point Point
	// Backend, when non-empty, must equal the backend name ("nccl", ...).
	Backend string
	// Op, when non-empty, must equal the lower-case operation name
	// ("allreduce", "broadcast", "reduce", "allgather", "reducescatter",
	// "send", "recv", "group"). Ignored for CommInit rules.
	Op string
	// Ranks, when non-nil, restricts the rule to these ranks.
	Ranks []int
	// After skips the first After otherwise-matching calls before the
	// rule becomes eligible.
	After int
	// Count bounds how many times the rule fires; 0 means unbounded.
	Count int
	// Probability fires the rule on each eligible call with this chance;
	// 0 means always (deterministic). Draws come from the plan's seed.
	Probability float64
	// Result is the CCL error to inject (ErrRemote for transient faults
	// the dispatch layer retries, ErrInternal for persistent ones).
	Result ccl.Result
	// Msg overrides the injected error message.
	Msg string
	// Delay is straggler latency added to the rank's stream execution.
	Delay time.Duration
	// From/Until bound the rule to a virtual-time window. Zero Until
	// means no end.
	From, Until time.Duration
	// Crash marks a fail-stop rule: instead of injecting an error into a
	// call, the matched rank dies permanently. A crash rule must name its
	// Ranks explicitly and triggers either at a virtual time (From set,
	// After zero — the rank is dead from From onward, regardless of
	// Backend/Op scope) or after a call budget (After = N — the rank dies
	// on its N+1-th matching liveness probe; Backend/Op scope which probes
	// count, and the budget is shared across the rule's ranks, so scope
	// one rule per rank for per-rank counts). Crash rules are permanent
	// and deterministic: Result, Delay, Count, Probability, and Until must
	// be unset. Dead ranks are reported through OpCrash/RankDead/DeadRanks
	// (the fabric.FailStop hook), never through OpError.
	Crash bool
}

// LinkRule degrades a fabric link class over a virtual-time window.
type LinkRule struct {
	// Name labels the rule.
	Name string
	// Link, when non-empty, restricts the rule to one route class
	// ("intra", "inter", "host").
	Link string
	// Nodes, when non-nil, restricts the rule to routes touching one of
	// these nodes (as source or destination).
	Nodes []int
	// From/Until bound the window. Zero Until means no end.
	From, Until time.Duration
	// BWScale multiplies per-channel bandwidth (0 < s ≤ 1 degrades);
	// zero leaves it unchanged.
	BWScale float64
	// AlphaScale multiplies link α (≥ 1: a rule only degrades, which a
	// sharded engine's lookahead, the undegraded α, relies on); zero
	// leaves it.
	AlphaScale float64
	// ChannelCap caps channels per transfer; zero leaves it.
	ChannelCap int
}

// CorruptRule flips payload bytes of matching fabric data transfers,
// modeling silent data corruption on the wire (bit rot, a flaky PCIe lane,
// a misbehaving switch). The fabric probes the hook once per transfer
// attempt — including retransmissions, which re-draw independently — and
// XORs the returned offsets in the destination buffer after the copy.
// Without integrity checking (core.Resilience.Integrity) corruption is
// silent; with it, the CRC32C mismatch triggers a bounded retransmit.
type CorruptRule struct {
	// Name labels the rule for Fired-count introspection.
	Name string
	// Link, when non-empty, restricts the rule to one route class
	// ("intra", "inter", "host").
	Link string
	// Nodes, when non-nil, restricts the rule to routes touching one of
	// these nodes (as source or destination).
	Nodes []int
	// From/Until bound the rule to a virtual-time window. Zero Until
	// means no end.
	From, Until time.Duration
	// Probability corrupts each eligible transfer with this chance;
	// 0 means always (deterministic).
	Probability float64
	// After skips the first After otherwise-matching transfers.
	After int
	// Count bounds how many transfers the rule corrupts; 0 means
	// unbounded.
	Count int
	// FlipBytes is how many distinct byte offsets to flip per corrupted
	// transfer; 0 means 1.
	FlipBytes int
}

// PartitionRule cuts the fabric into two sides over a virtual-time window,
// modeling a network partition (a failed spine switch, a mis-pushed ACL, a
// severed inter-rack cable). Exactly one of Nodes or Ranks names group A of
// the bipartition; every endpoint pair with exactly one member in group A is
// severed while the rule is active. Node-scoped rules are enforced by the
// fabric itself (cross-cut transfers and control messages fail fast with
// fabric.ErrPartitioned); rank-scoped rules are membership-level cuts
// consumed by the quorum layer in internal/core and the scale model. From
// is the moment of the cut and Until the heal time; Until == 0 means the
// partition never heals.
type PartitionRule struct {
	// Name labels the rule for Fired-count introspection.
	Name string
	// Nodes names group A of the bipartition by node id. Exactly one of
	// Nodes/Ranks must be non-empty.
	Nodes []int
	// Ranks names group A of the bipartition by world rank.
	Ranks []int
	// From is the virtual time of the cut; Until the heal time (0 = the
	// partition is permanent). Until must be strictly after From.
	From, Until time.Duration
	// Probability arms the rule with this chance; 0 means always
	// (deterministic). Unlike per-call rules the coin is drawn once, at
	// AddPartitionRule time — a cut is a single event, and every shard
	// and rank must see the same verdict.
	Probability float64
}

type partitionState struct {
	PartitionRule
	armed bool // probability draw, taken once at AddPartitionRule
	fired int  // 1 once the active window has been observed
}

type ruleState struct {
	Rule
	matched int // eligible calls seen (drives After)
	fired   int // times the rule actually fired (drives Count)
}

type corruptState struct {
	CorruptRule
	matched int
	fired   int
}

// Plan is a seeded, concurrency-safe fault plan. The zero value is not
// usable; construct with NewPlan.
type Plan struct {
	mu         sync.Mutex
	state      uint64
	rules      []*ruleState
	links      []LinkRule
	corrupt    []*corruptState
	partitions []*partitionState
	dead       map[int]time.Duration // rank -> virtual time of fail-stop
}

// Compile-time hook conformance.
var (
	_ ccl.Injector       = (*Plan)(nil)
	_ fabric.Degrader    = (*Plan)(nil)
	_ fabric.FailStop    = (*Plan)(nil)
	_ fabric.Corrupter   = (*Plan)(nil)
	_ fabric.Partitioner = (*Plan)(nil)
)

// NewPlan returns an empty plan whose probabilistic draws derive from seed.
func NewPlan(seed uint64) *Plan {
	return &Plan{state: seed}
}

// ruleLabel names a rule in validation errors.
func ruleLabel(name string) string {
	if name == "" {
		return "(unnamed)"
	}
	return name
}

// CheckRule validates a call-site rule at construction, returning a
// descriptive error for rules that could never fire or contradict
// themselves. An inverted time window or a negative budget used to be
// accepted and silently never fired — a fault plan that looks armed but
// injects nothing.
func CheckRule(r Rule) error {
	n := ruleLabel(r.Name)
	if r.Until != 0 && r.Until <= r.From {
		return fmt.Errorf("fault: rule %s has an inverted time window (from %v, until %v): it would never fire", n, r.From, r.Until)
	}
	if r.After < 0 {
		return fmt.Errorf("fault: rule %s has a negative After budget (%d)", n, r.After)
	}
	if r.Count < 0 {
		return fmt.Errorf("fault: rule %s has a negative Count budget (%d)", n, r.Count)
	}
	if r.Probability < 0 || r.Probability > 1 {
		return fmt.Errorf("fault: rule %s has Probability %v outside [0, 1]", n, r.Probability)
	}
	if r.Delay < 0 {
		return fmt.Errorf("fault: rule %s has a negative Delay (%v)", n, r.Delay)
	}
	if r.Crash {
		if r.Point != OpCall {
			return fmt.Errorf("fault: crash rule %s must use Point OpCall", n)
		}
		if len(r.Ranks) == 0 {
			return fmt.Errorf("fault: crash rule %s must name its Ranks explicitly", n)
		}
		if r.Result != ccl.Success || r.Delay != 0 {
			return fmt.Errorf("fault: crash rule %s must not set Result or Delay (a fail-stop is not an injected call error)", n)
		}
		if r.Count != 0 || r.Probability != 0 || r.Until != 0 {
			return fmt.Errorf("fault: crash rule %s must not set Count, Probability, or Until (a fail-stop is permanent and deterministic)", n)
		}
		return nil
	}
	if r.Result == ccl.Success && r.Delay == 0 {
		return fmt.Errorf("fault: rule %s injects neither an error nor a delay: it would never fire", n)
	}
	return nil
}

// CheckLinkRule validates a link-degradation window at construction.
func CheckLinkRule(r LinkRule) error {
	n := ruleLabel(r.Name)
	if r.Until != 0 && r.Until <= r.From {
		return fmt.Errorf("fault: link rule %s has an inverted time window (from %v, until %v): it would never fire", n, r.From, r.Until)
	}
	if r.BWScale < 0 || r.BWScale > 1 {
		return fmt.Errorf("fault: link rule %s has BWScale %v outside (0, 1]", n, r.BWScale)
	}
	if r.AlphaScale < 0 {
		return fmt.Errorf("fault: link rule %s has a negative AlphaScale (%v)", n, r.AlphaScale)
	}
	if r.AlphaScale > 0 && r.AlphaScale < 1 {
		return fmt.Errorf("fault: link rule %s has AlphaScale %v below 1: a link rule only degrades", n, r.AlphaScale)
	}
	if r.ChannelCap < 0 {
		return fmt.Errorf("fault: link rule %s has a negative ChannelCap (%d)", n, r.ChannelCap)
	}
	if r.BWScale == 0 && r.AlphaScale == 0 && r.ChannelCap == 0 {
		return fmt.Errorf("fault: link rule %s degrades nothing: it would never fire", n)
	}
	return nil
}

// AddRule appends a call-site rule, panicking with a descriptive error if
// the rule is invalid (use CheckRule to validate without panicking).
// Returns the plan for chaining.
func (p *Plan) AddRule(r Rule) *Plan {
	if err := CheckRule(r); err != nil {
		panic(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules = append(p.rules, &ruleState{Rule: r})
	return p
}

// CheckCorruptRule validates a payload-corruption rule at construction.
func CheckCorruptRule(r CorruptRule) error {
	n := ruleLabel(r.Name)
	if r.Until != 0 && r.Until <= r.From {
		return fmt.Errorf("fault: corrupt rule %s has an inverted time window (from %v, until %v): it would never fire", n, r.From, r.Until)
	}
	if r.After < 0 {
		return fmt.Errorf("fault: corrupt rule %s has a negative After budget (%d)", n, r.After)
	}
	if r.Count < 0 {
		return fmt.Errorf("fault: corrupt rule %s has a negative Count budget (%d)", n, r.Count)
	}
	if r.Probability < 0 || r.Probability > 1 {
		return fmt.Errorf("fault: corrupt rule %s has Probability %v outside [0, 1]", n, r.Probability)
	}
	if r.FlipBytes < 0 {
		return fmt.Errorf("fault: corrupt rule %s has a negative FlipBytes (%d)", n, r.FlipBytes)
	}
	return nil
}

// AddCorruptRule appends a payload-corruption rule, panicking with a
// descriptive error if the rule is invalid (use CheckCorruptRule to
// validate without panicking). Returns the plan.
func (p *Plan) AddCorruptRule(r CorruptRule) *Plan {
	if err := CheckCorruptRule(r); err != nil {
		panic(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.corrupt = append(p.corrupt, &corruptState{CorruptRule: r})
	return p
}

// CheckPartitionRule validates a network-partition rule at construction.
// A heal time at or before the cut, an empty (or doubly-specified) group,
// or an out-of-range probability are rejected with descriptive errors —
// partition + crash on the same rank is deliberately allowed, the faults
// compose (a dead rank stays dead on both sides of the cut).
func CheckPartitionRule(r PartitionRule) error {
	n := ruleLabel(r.Name)
	if len(r.Nodes) == 0 && len(r.Ranks) == 0 {
		return fmt.Errorf("fault: partition rule %s names neither Nodes nor Ranks: there is no cut to make", n)
	}
	if len(r.Nodes) > 0 && len(r.Ranks) > 0 {
		return fmt.Errorf("fault: partition rule %s names both Nodes and Ranks: a cut follows exactly one boundary", n)
	}
	if r.Until != 0 && r.Until <= r.From {
		return fmt.Errorf("fault: partition rule %s heals at %v, at or before the cut at %v: it would never fire", n, r.Until, r.From)
	}
	if r.Probability < 0 || r.Probability > 1 {
		return fmt.Errorf("fault: partition rule %s has Probability %v outside [0, 1]", n, r.Probability)
	}
	return nil
}

// AddPartitionRule appends a network-partition rule, panicking with a
// descriptive error if the rule is invalid (use CheckPartitionRule to
// validate without panicking). The probability coin is drawn here, once —
// never per query — so the verdict is fixed before the simulation starts
// and identical across shards. Returns the plan.
func (p *Plan) AddPartitionRule(r PartitionRule) *Plan {
	if err := CheckPartitionRule(r); err != nil {
		panic(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	ps := &partitionState{PartitionRule: r, armed: true}
	if r.Probability > 0 && r.Probability < 1 && p.coin() >= r.Probability {
		ps.armed = false
	}
	p.partitions = append(p.partitions, ps)
	return p
}

// activePartitionLocked reports whether rule ps is cutting the fabric at
// now, crediting its Fired count on first observation. Callers hold p.mu.
func (p *Plan) activePartitionLocked(ps *partitionState, now time.Duration) bool {
	if !ps.armed || !inWindow(ps.From, ps.Until, now) {
		return false
	}
	if ps.fired == 0 {
		ps.fired = 1
	}
	return true
}

// splitBy reports whether the group-A set splits endpoints a and b: exactly
// one of the two is in the set.
func splitBy(group []int, a, b int) bool {
	ina, inb := false, false
	for _, g := range group {
		if g == a {
			ina = true
		}
		if g == b {
			inb = true
		}
	}
	return ina != inb
}

// Severed implements fabric.Partitioner: a node-scoped partition rule
// active at now cuts the (srcNode, dstNode) route. Rank-scoped rules are
// invisible here — the fabric routes by node, so rank cuts are enforced at
// the membership layer through RanksSevered.
func (p *Plan) Severed(srcNode, dstNode int, now time.Duration) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ps := range p.partitions {
		if len(ps.Nodes) == 0 {
			continue
		}
		if splitBy(ps.Nodes, srcNode, dstNode) && p.activePartitionLocked(ps, now) {
			return true
		}
	}
	return false
}

// RanksSevered implements fabric.Partitioner: a rank-scoped partition rule
// active at now cuts the world-rank pair (a, b).
func (p *Plan) RanksSevered(a, b int, now time.Duration) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ps := range p.partitions {
		if len(ps.Ranks) == 0 {
			continue
		}
		if splitBy(ps.Ranks, a, b) && p.activePartitionLocked(ps, now) {
			return true
		}
	}
	return false
}

// PartitionedNow implements fabric.Partitioner: any partition rule (node-
// or rank-scoped) is cutting the fabric at now. Dispatch layers use this as
// a cheap guard before per-pair Severed probes.
func (p *Plan) PartitionedNow(now time.Duration) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ps := range p.partitions {
		if p.activePartitionLocked(ps, now) {
			return true
		}
	}
	return false
}

// PartitionedUntil implements fabric.Partitioner: the virtual time the last
// partition active at now heals. heals == false means at least one active
// cut is permanent (Until == 0); no active cut returns (0, true). Fenced
// ranks sleep on this to time their rejoin.
func (p *Plan) PartitionedUntil(now time.Duration) (until time.Duration, heals bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	heals = true
	for _, ps := range p.partitions {
		if !p.activePartitionLocked(ps, now) {
			continue
		}
		if ps.Until == 0 {
			return 0, false
		}
		if ps.Until > until {
			until = ps.Until
		}
	}
	return until, heals
}

// HasPartitions implements fabric.Partitioner: the plan carries at least
// one armed partition rule. Partition-aware training loops use this to
// decide whether to poll for regrowth; it never consults the clock.
func (p *Plan) HasPartitions() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ps := range p.partitions {
		if ps.armed {
			return true
		}
	}
	return false
}

// AddLinkRule appends a link-degradation window, panicking with a
// descriptive error if the window is invalid (use CheckLinkRule to validate
// without panicking). Returns the plan.
func (p *Plan) AddLinkRule(r LinkRule) *Plan {
	if err := CheckLinkRule(r); err != nil {
		panic(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.links = append(p.links, r)
	return p
}

// Fired reports how many times the named rule(s) have fired.
func (p *Plan) Fired(name string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, r := range p.rules {
		if r.Name == name {
			n += r.fired
		}
	}
	for _, r := range p.corrupt {
		if r.Name == name {
			n += r.fired
		}
	}
	for _, r := range p.partitions {
		if r.Name == name {
			n += r.fired
		}
	}
	return n
}

// coin draws the next splitmix64 variate in [0, 1). Callers hold p.mu.
func (p *Plan) coin() float64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}

func inWindow(from, until, now time.Duration) bool {
	return now >= from && (until == 0 || now < until)
}

func rankIn(ranks []int, rank int) bool {
	if ranks == nil {
		return true
	}
	for _, r := range ranks {
		if r == rank {
			return true
		}
	}
	return false
}

// fire decides whether rule r fires for a matching call, advancing its
// After/Count bookkeeping and the PRNG. Callers hold p.mu and have
// already checked the scope fields.
func (p *Plan) fire(r *ruleState) bool {
	r.matched++
	if r.matched <= r.After {
		return false
	}
	if r.Count > 0 && r.fired >= r.Count {
		return false
	}
	if r.Probability > 0 && r.Probability < 1 && p.coin() >= r.Probability {
		return false
	}
	r.fired++
	return true
}

func (p *Plan) matchOp(r *ruleState, backend, op string, rank int, now time.Duration) bool {
	if r.Point != OpCall {
		return false
	}
	if r.Backend != "" && r.Backend != backend {
		return false
	}
	if r.Op != "" && r.Op != op {
		return false
	}
	if !rankIn(r.Ranks, rank) {
		return false
	}
	return inWindow(r.From, r.Until, now)
}

// markDead records a rank's fail-stop (once) and credits the rule's Fired
// count. Callers hold p.mu.
func (p *Plan) markDead(r *ruleState, rank int, at time.Duration) {
	if _, ok := p.dead[rank]; ok {
		return
	}
	if p.dead == nil {
		p.dead = make(map[int]time.Duration)
	}
	p.dead[rank] = at
	r.fired++
}

// rankDeadLocked answers the pure liveness query: the rank is dead if a
// probe already killed it or a time-triggered crash rule's From has passed.
// Time-triggered deaths ignore Backend/Op scope — a fail-stopped rank is
// dead for every call site. Callers hold p.mu.
func (p *Plan) rankDeadLocked(rank int, now time.Duration) bool {
	if t, ok := p.dead[rank]; ok {
		return t <= now
	}
	for _, r := range p.rules {
		if !r.Crash || r.After > 0 {
			continue
		}
		if rankIn(r.Ranks, rank) && now >= r.From {
			p.markDead(r, rank, r.From)
			return true
		}
	}
	return false
}

// OpCrash implements fabric.FailStop's liveness probe: it reports whether
// rank has fail-stopped, advancing call-counted crash rules — each probe
// from a live matching rank consumes one call of the rule's After budget,
// so a rule with After=N kills the rank on its N+1-th matching call. The
// CCL validation path probes once per op call on the calling rank.
func (p *Plan) OpCrash(backend, op string, rank int, now time.Duration) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rankDeadLocked(rank, now) {
		return true
	}
	for _, r := range p.rules {
		if !r.Crash || r.After <= 0 || !p.matchOp(r, backend, op, rank, now) {
			continue
		}
		r.matched++
		if r.matched <= r.After {
			continue
		}
		p.markDead(r, rank, now)
		return true
	}
	return false
}

// RankDead implements fabric.FailStop: a pure liveness query that never
// advances call budgets. Watchdog verdicts and survivor agreement use this.
func (p *Plan) RankDead(rank int, now time.Duration) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rankDeadLocked(rank, now)
}

// DeadRanks implements fabric.FailStop: every rank known dead at now, in
// ascending order. Like RankDead it is a pure query.
func (p *Plan) DeadRanks(now time.Duration) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := make(map[int]bool, len(p.dead))
	for rank, t := range p.dead {
		if t <= now {
			seen[rank] = true
		}
	}
	for _, r := range p.rules {
		if !r.Crash || r.After > 0 || now < r.From {
			continue
		}
		for _, rank := range r.Ranks {
			if !seen[rank] {
				p.markDead(r, rank, r.From)
				seen[rank] = true
			}
		}
	}
	if len(seen) == 0 {
		return nil
	}
	ranks := make([]int, 0, len(seen))
	for rank := range seen {
		ranks = append(ranks, rank)
	}
	sort.Ints(ranks)
	return ranks
}

// OpError implements ccl.Injector: the first firing error rule wins. Crash
// rules never inject call errors; they surface through OpCrash instead.
func (p *Plan) OpError(backend, op string, rank int, now time.Duration) *ccl.Error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.rules {
		if r.Crash || r.Result == ccl.Success || !p.matchOp(r, backend, op, rank, now) {
			continue
		}
		if !p.fire(r) {
			continue
		}
		msg := r.Msg
		if msg == "" {
			msg = "injected fault"
		}
		return &ccl.Error{Backend: backend, Result: r.Result, Msg: msg}
	}
	return nil
}

// OpDelay implements ccl.Injector: straggler delays of all firing delay
// rules accumulate.
func (p *Plan) OpDelay(backend, op string, rank int, now time.Duration) time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	var d time.Duration
	for _, r := range p.rules {
		if r.Delay <= 0 || r.Result != ccl.Success || !p.matchOp(r, backend, op, rank, now) {
			continue
		}
		if p.fire(r) {
			d += r.Delay
		}
	}
	return d
}

// CommInitError implements ccl.Injector.
func (p *Plan) CommInitError(backend string, rank int, now time.Duration) *ccl.Error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.rules {
		if r.Point != CommInit || r.Result == ccl.Success {
			continue
		}
		if r.Backend != "" && r.Backend != backend {
			continue
		}
		if !rankIn(r.Ranks, rank) || !inWindow(r.From, r.Until, now) {
			continue
		}
		if !p.fire(r) {
			continue
		}
		msg := r.Msg
		if msg == "" {
			msg = "injected comm-init fault"
		}
		return &ccl.Error{Backend: backend, Result: r.Result, Msg: msg}
	}
	return nil
}

func nodeIn(nodes []int, src, dst int) bool {
	if nodes == nil {
		return true
	}
	for _, n := range nodes {
		if n == src || n == dst {
			return true
		}
	}
	return false
}

func compose(lf fabric.LinkFault, r LinkRule) fabric.LinkFault {
	if r.BWScale > 0 {
		if lf.BWScale == 0 {
			lf.BWScale = 1
		}
		lf.BWScale *= r.BWScale
	}
	if r.AlphaScale > 0 {
		if lf.AlphaScale == 0 {
			lf.AlphaScale = 1
		}
		lf.AlphaScale *= r.AlphaScale
	}
	if r.ChannelCap > 0 && (lf.ChannelCap == 0 || r.ChannelCap < lf.ChannelCap) {
		lf.ChannelCap = r.ChannelCap
	}
	return lf
}

// DegradedLink implements fabric.Degrader: all windows active for the
// route at now compose (scales multiply, the tightest channel cap wins).
func (p *Plan) DegradedLink(class string, srcNode, dstNode int, now time.Duration) (fabric.LinkFault, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var lf fabric.LinkFault
	hit := false
	for _, r := range p.links {
		if r.Link != "" && r.Link != class {
			continue
		}
		if !nodeIn(r.Nodes, srcNode, dstNode) || !inWindow(r.From, r.Until, now) {
			continue
		}
		lf = compose(lf, r)
		hit = true
	}
	return lf, hit
}

// CorruptTransfer implements fabric.Corrupter: for an n-byte transfer over
// the route at now, it returns the distinct destination-buffer offsets to
// flip, or nil when no rule fires. Every matching rule contributes its own
// draws; duplicate offsets are resolved by linear probing so two rules (or
// FlipBytes > 1 within one) never cancel each other's XOR.
func (p *Plan) CorruptTransfer(class string, srcNode, dstNode int, n int64, now time.Duration) []int64 {
	if n <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var offs []int64
	for _, r := range p.corrupt {
		if r.Link != "" && r.Link != class {
			continue
		}
		if !nodeIn(r.Nodes, srcNode, dstNode) || !inWindow(r.From, r.Until, now) {
			continue
		}
		r.matched++
		if r.matched <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		if r.Probability > 0 && r.Probability < 1 && p.coin() >= r.Probability {
			continue
		}
		r.fired++
		flips := r.FlipBytes
		if flips <= 0 {
			flips = 1
		}
		for i := 0; i < flips && int64(len(offs)) < n; i++ {
			off := int64(p.coin() * float64(n))
			if off >= n {
				off = n - 1
			}
			for contains(offs, off) {
				off = (off + 1) % n
			}
			offs = append(offs, off)
		}
	}
	return offs
}

func contains(offs []int64, off int64) bool {
	for _, o := range offs {
		if o == off {
			return true
		}
	}
	return false
}

// DeathTime reports the virtual time a rank fail-stopped, if it is known
// dead. Like RankDead it is a pure query that never advances call budgets;
// the chaos harness uses it to bound detection latency against the actual
// moment of death.
func (p *Plan) DeathTime(rank int) (time.Duration, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.dead[rank]
	return t, ok
}

// DegradedNow implements fabric.Degrader: the composition of every window
// active at now, regardless of class or nodes — the aggregate signal the
// dispatch layer uses to shrink its channel budget.
func (p *Plan) DegradedNow(now time.Duration) (fabric.LinkFault, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var lf fabric.LinkFault
	hit := false
	for _, r := range p.links {
		if !inWindow(r.From, r.Until, now) {
			continue
		}
		lf = compose(lf, r)
		hit = true
	}
	return lf, hit
}
