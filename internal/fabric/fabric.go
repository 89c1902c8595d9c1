// Package fabric moves bytes between simulated devices in virtual time.
//
// A transfer is priced by the α–β model of the link class connecting the
// endpoints (topology.Link) and is subject to contention: every link
// instance is a pool of channel units (sim.Resource), transfers carve the
// message into pipeline chunks and re-acquire channels per chunk, so
// concurrent flows share bandwidth adaptively. Intra-node device pairs
// share one pool across both directions (which reproduces the measured
// bidirectional-bandwidth shortfall of Fig 3d); inter-node flows contend on
// per-node egress and ingress NIC pools.
//
// Data really moves: the destination buffer holds the source bytes when
// Transfer returns. Price charges the same wire time between two devices
// without moving bytes, for callers that read the source in place or only
// model time.
package fabric

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"mpixccl/internal/device"
	"mpixccl/internal/metrics"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// castagnoli is the CRC32C polynomial table used for end-to-end payload
// integrity. CRC32C is what real NICs and NVLink offload in hardware, so
// the check itself charges no virtual time.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DefaultChunk is the pipeline chunk size used when Opts.ChunkBytes is zero.
const DefaultChunk = 512 << 10

// Opts tunes one transfer.
type Opts struct {
	// Channels is the maximum channel units the transfer may drive.
	// Zero means 1. The link's DirChannels still caps the grant. CCL
	// backends pass their channel budget; the MPI path uses 1–2.
	Channels int
	// ChunkBytes overrides the pipeline chunk size.
	ChunkBytes int64
}

// LinkFault is one active degradation of a route, applied for the whole
// duration of a transfer that starts inside its window. Zero fields leave
// the corresponding parameter unchanged.
type LinkFault struct {
	// BWScale multiplies each channel's bandwidth (0 < s ≤ 1 degrades).
	BWScale float64
	// AlphaScale multiplies the link's per-message latency (> 1 degrades).
	AlphaScale float64
	// ChannelCap bounds the channels one transfer may drive.
	ChannelCap int
}

// Degrader is the link-fault hook (implemented by fault.Plan): the fabric
// consults it per transfer for an active degradation window.
type Degrader interface {
	// DegradedLink reports the degradation for a route of the given class
	// ("intra", "inter", "host") between two nodes at virtual time now.
	DegradedLink(class string, srcNode, dstNode int, now time.Duration) (LinkFault, bool)
	// DegradedNow reports whether any link degradation is active at now —
	// the aggregate signal the dispatch layer reacts to — with the
	// composed fault of all active windows.
	//
	// FailStop (declared separately below) is the sibling hook for
	// fail-stop rank crashes.
	DegradedNow(now time.Duration) (LinkFault, bool)
}

// FailStop is the fail-stop crash hook (implemented by fault.Plan with
// crash rules). The CCL layer probes OpCrash on every call from the calling
// rank so call-counted crashes advance; the watchdog and the ULFM-style
// shrink agreement in internal/core use the pure queries to attribute a
// blocked collective to a dead peer and to compute the survivor set.
type FailStop interface {
	// OpCrash reports whether rank has fail-stopped, counting this call
	// against any call-budgeted crash rule matching (backend, op, rank).
	OpCrash(backend, op string, rank int, now time.Duration) bool
	// RankDead reports whether rank is dead at now without advancing any
	// call budget.
	RankDead(rank int, now time.Duration) bool
	// DeadRanks lists every rank known dead at now, ascending.
	DeadRanks(now time.Duration) []int
}

// Corrupter is the payload-corruption hook (implemented by fault.Plan with
// corrupt rules). The fabric probes it once per data-transfer attempt —
// after the bytes land in the destination buffer — and XORs the returned
// offsets, modeling silent corruption on the wire. Retransmissions probe
// again, so a probabilistic rule can corrupt a retry independently.
type Corrupter interface {
	// CorruptTransfer returns the distinct destination offsets to flip for
	// an n-byte transfer over the route at now, or nil to leave it intact.
	CorruptTransfer(class string, srcNode, dstNode int, n int64, now time.Duration) []int64
}

// Partitioner is the network-partition hook (implemented by fault.Plan
// with partition rules). The fabric consults Severed per non-local transfer
// and control message, failing cross-cut traffic fast with ErrPartitioned —
// a partition is an absence of connectivity, so the failure consumes no
// virtual time. The membership layer in internal/core consumes the pure
// rank/time queries to fence minorities and time rejoins.
type Partitioner interface {
	// Severed reports whether a node-scoped cut separates srcNode from
	// dstNode at virtual time now.
	Severed(srcNode, dstNode int, now time.Duration) bool
	// RanksSevered reports whether a rank-scoped cut separates world ranks
	// a and b at now. The fabric routes by node and never calls this; the
	// membership layer does.
	RanksSevered(a, b int, now time.Duration) bool
	// PartitionedNow reports whether any cut is active at now — a cheap
	// guard before per-pair probes.
	PartitionedNow(now time.Duration) bool
	// PartitionedUntil reports when the cuts active at now have all
	// healed. heals == false means at least one is permanent; no active
	// cut returns (0, true).
	PartitionedUntil(now time.Duration) (until time.Duration, heals bool)
	// HasPartitions reports whether the plan carries any armed partition
	// rule, without consulting the clock.
	HasPartitions() bool
}

// ErrPartitioned is returned by TryTransfer and TryControlMsg when the
// route crosses an active network cut. Like routing errors it consumes no
// virtual time: the packets were never going to arrive, and the caller's
// recovery (abort the schedule, fence, shrink) supplies the time bound.
var ErrPartitioned = errors.New("fabric: route severed by network partition")

// Integrity configures end-to-end CRC32C verification of data transfers.
// When enabled, every non-local transfer checksums source and destination
// after the copy; a mismatch (injected by a Corrupter) triggers a
// retransmission, up to MaxRetries, after which the corrupt payload is
// delivered anyway and counted as unrecovered — erroring out mid-schedule
// would strand the peer ranks of a collective, so the policy layer above
// observes the unrecovered counter instead.
type Integrity struct {
	// Enabled turns on checksumming. Off by default: the CRC path is
	// byte-identical in virtual time when disabled.
	Enabled bool
	// MaxRetries bounds retransmissions per transfer; 0 means none
	// (detect and deliver).
	MaxRetries int
}

// Fabric prices and executes transfers over one system's links. Its
// contention pools sit in per-node tables (nodePools): the tables are made
// at the first route and each pool at its first use. A transfer's route is
// computed from its two endpoints and those tables, with nothing memoized,
// and both endpoints must be devices of the fabric's system.
type Fabric struct {
	k   *sim.Kernel
	sys *topology.System

	nodes []nodePools // indexed by node; nil until the first route

	faults      any         // attached fault agent (see SetFaults)
	degrader    Degrader    // faults, when it implements Degrader
	failstop    FailStop    // faults, when it implements FailStop
	corrupter   Corrupter   // faults, when it implements Corrupter
	partitioner Partitioner // faults, when it implements Partitioner
	integrity   Integrity
	reg         *metrics.Registry
}

// SetFaults attaches a fault agent (typically a *fault.Plan) to the
// fabric — the one ambient attachment point for a simulated world. The
// fabric itself consults it for link degradation when it implements
// Degrader; the CCL layer picks it up from here (via Faults) when it
// implements ccl.Injector, and the watchdog/shrink machinery (via
// FailStop) when it models fail-stop crashes. Pass nil to detach.
func (f *Fabric) SetFaults(agent any) {
	f.faults = agent
	f.degrader, _ = agent.(Degrader)
	f.failstop, _ = agent.(FailStop)
	f.corrupter, _ = agent.(Corrupter)
	f.partitioner, _ = agent.(Partitioner)
}

// Faults returns the attached fault agent (nil when none).
func (f *Fabric) Faults() any { return f.faults }

// FailStop returns the attached fail-stop detector, or nil when the fault
// agent does not model rank crashes.
func (f *Fabric) FailStop() FailStop { return f.failstop }

// Partitioner returns the attached partition oracle, or nil when the fault
// agent does not model network partitions.
func (f *Fabric) Partitioner() Partitioner { return f.partitioner }

// SetIntegrity configures end-to-end CRC32C checking of data transfers.
func (f *Fabric) SetIntegrity(i Integrity) { f.integrity = i }

// Faithful reports whether every transfer delivers exactly the source bytes
// with nothing to check: no corrupter is attached and integrity is off. Only
// then may a caller skip the byte copy (Price) and let the receiver
// read the source in place — injected corruption must land in a real copy,
// and a CRC32C check compares two.
func (f *Fabric) Faithful() bool { return f.corrupter == nil && !f.integrity.Enabled }

// SetMetrics attaches the world's metrics registry: the fabric's own
// counters (degraded transfers, corruption and retransmits) and those of
// every runtime built over it (mpi.Job sends, ccl.NewComms instruments)
// report into it. Attach it before building communicators. A nil registry
// disables them all.
func (f *Fabric) SetMetrics(reg *metrics.Registry) { f.reg = reg }

// Metrics returns the attached registry (nil when none).
func (f *Fabric) Metrics() *metrics.Registry { return f.reg }

// DegradedNow reports the composed active link degradation at virtual time
// now, or false when no degrader is attached or no window is active.
func (f *Fabric) DegradedNow(now time.Duration) (LinkFault, bool) {
	if f.degrader == nil {
		return LinkFault{}, false
	}
	return f.degrader.DegradedNow(now)
}

// New returns a fabric for the system.
func New(k *sim.Kernel, sys *topology.System) *Fabric {
	return &Fabric{k: k, sys: sys}
}

// System returns the topology the fabric runs over.
func (f *Fabric) System() *topology.System { return f.sys }

// Kernel returns the simulation kernel.
func (f *Fabric) Kernel() *sim.Kernel { return f.k }

// nodePools holds one node's contention pools, each made at first use:
// its NIC egress and ingress pools, its host staging pool, and, indexed by
// device.Local pair a*DevicesPerNode+b, each device pair's duplex pool
// (a < b: both directions share it) and each direction's cap.
type nodePools struct {
	egress, ingress, host *sim.Resource
	duplex, dir           []*sim.Resource
}

// node returns node n's pool table, making the fabric's tables at the
// first route.
func (f *Fabric) node(n int) *nodePools {
	if f.nodes == nil {
		f.nodes = make([]nodePools, len(f.sys.Nodes))
	}
	return &f.nodes[n]
}

// pool returns *slot, making it with the given channel units first.
func (f *Fabric) pool(slot **sim.Resource, units int) *sim.Resource {
	if *slot == nil {
		*slot = sim.NewResource(f.k, units)
	}
	return *slot
}

// intraPools returns the direction cap of a → b and the pair's shared
// duplex pool, for two devices of one node given by local index. The cap
// holds one direction at DirChannels, so concurrent same-direction flows
// cannot exceed the direction's peak even though the duplex pool is
// larger.
func (f *Fabric) intraPools(node, a, b int) (dir, duplex *sim.Resource) {
	n := f.node(node)
	dpn := len(f.sys.Nodes[node].Devices)
	if n.dir == nil {
		n.dir = make([]*sim.Resource, dpn*dpn)
		n.duplex = make([]*sim.Resource, dpn*dpn)
	}
	l := &f.sys.Intra
	return f.pool(&n.dir[a*dpn+b], l.DirChannels), f.pool(&n.duplex[min(a, b)*dpn+max(a, b)], l.TotalChannels)
}

// route describes the link class and contention pools for one transfer.
type route struct {
	link    *topology.Link   // the system's link of the class
	pools   [2]*sim.Resource // acquired in order per chunk; a host route has one
	local   bool             // same-device copy
	device  *device.Device   // for local copies
	class   string           // "intra", "inter", "host" (empty for local)
	srcNode int
	dstNode int
}

// chain returns the route's pools in acquisition order.
func (r *route) chain() []*sim.Resource {
	if r.pools[1] == nil {
		return r.pools[:1]
	}
	return r.pools[:]
}

// holds reports whether d is a device of the fabric's system: the device
// at d.Local on node d.Node, or that node's host.
func (f *Fabric) holds(d *device.Device) bool {
	if d.Node < 0 || d.Node >= len(f.sys.Nodes) {
		return false
	}
	n := f.sys.Nodes[d.Node]
	return d == n.Host || d.Local >= 0 && d.Local < len(n.Devices) && n.Devices[d.Local] == d
}

// route resolves the link class and contention pools for a device pair.
// Both endpoints must belong to the fabric's system.
func (f *Fabric) route(src, dst *device.Device) (route, error) {
	if src == nil || dst == nil {
		return route{}, fmt.Errorf("fabric: transfer endpoint has no device (use node host buffers, not detached ones)")
	}
	for _, d := range [2]*device.Device{src, dst} {
		if !f.holds(d) {
			return route{}, fmt.Errorf("fabric: transfer endpoint %v is not a device of system %q", d, f.sys.Name)
		}
	}
	if src == dst {
		return route{local: true, device: src}, nil
	}
	if src.Node != dst.Node {
		l := &f.sys.Inter
		return route{link: l, class: "inter", srcNode: src.Node, dstNode: dst.Node,
			pools: [2]*sim.Resource{
				f.pool(&f.node(src.Node).egress, l.TotalChannels),
				f.pool(&f.node(dst.Node).ingress, l.TotalChannels),
			}}, nil
	}
	if src.Kind == device.Host || dst.Kind == device.Host {
		l := &f.sys.HostLink
		return route{link: l, class: "host", srcNode: src.Node, dstNode: dst.Node,
			pools: [2]*sim.Resource{f.pool(&f.node(src.Node).host, l.TotalChannels)}}, nil
	}
	dir, duplex := f.intraPools(src.Node, src.Local, dst.Local)
	return route{link: &f.sys.Intra, class: "intra", srcNode: src.Node, dstNode: dst.Node,
		pools: [2]*sim.Resource{dir, duplex}}, nil
}

// degradedFor reports the active fault on a route at now, counting the
// degraded transfer when one applies.
func (f *Fabric) degradedFor(r route, now time.Duration) (LinkFault, bool) {
	if f.degrader == nil || r.local {
		return LinkFault{}, false
	}
	lf, ok := f.degrader.DegradedLink(r.class, r.srcNode, r.dstNode, now)
	if !ok {
		return LinkFault{}, false
	}
	f.reg.Counter("xccl_degraded_transfers_total",
		"Transfers executed over a degraded link, by link class.",
		metrics.Labels{"link": r.class}).Inc()
	return lf, true
}

// Transfer moves n bytes from src to dst, blocking p for the priced time,
// and returns the elapsed virtual duration. It is the Must-variant of
// TryTransfer: endpoints without a route (detached host buffers, foreign
// devices) are caller bugs and panic. Code that can legitimately hit a
// routing failure — e.g. under an injected topology fault — should call
// TryTransfer and handle the error.
func (f *Fabric) Transfer(p *sim.Proc, dst, src *device.Buffer, n int64, o Opts) time.Duration {
	d, err := f.TryTransfer(p, dst.Whole(), src.Whole(), n, o)
	if err != nil {
		panic(err)
	}
	return d
}

// TryTransfer moves n bytes from the src view to the dst view, blocking p
// for the priced time, and returns the elapsed virtual duration. Views
// address segments by value, so a schedule's per-segment transfers build
// no buffers. It returns an error (consuming no virtual time) when the
// endpoints have no route or the length is out of bounds. Any active
// link-degradation window (SetFaults) scales the route's α and per-channel
// bandwidth and caps the channel grant for the whole transfer, as observed
// at its start time. It drives the transfer's state machine (Xfer) on p
// (sim.Proc.Drive), so p is switched to once, when the transfer is done.
func (f *Fabric) TryTransfer(p *sim.Proc, dst, src device.View, n int64, o Opts) (time.Duration, error) {
	start := p.Now()
	x := getXfer()
	defer putXfer(x)
	if err := f.Open(x, dst, src, n, o); err != nil {
		return 0, err
	}
	p.Drive(x)
	return p.Now() - start, nil
}

// Price blocks p for the wire time of n bytes from device src to device
// dst, exactly as TryTransfer prices it, and returns the elapsed virtual
// duration; no bytes move and nothing is corrupted or checked. It fails
// like TryTransfer when the endpoints have no route or a partition severs
// them. Callers that let the receiver read the source in place, or that
// only model time, use it instead of staging a copy.
func (f *Fabric) Price(p *sim.Proc, dst, src *device.Device, n int64, o Opts) (time.Duration, error) {
	start := p.Now()
	x := getXfer()
	defer putXfer(x)
	if err := f.OpenPrice(x, dst, src, n, o); err != nil {
		return 0, err
	}
	p.Drive(x)
	return p.Now() - start, nil
}

// xfers holds the idle transfer states of TryTransfer and Price. One list
// serves every fabric, so a world built per call finds them warm; the lock
// is for the shards of a sharded fabric, and for worlds run in parallel,
// which run on threads of their own.
var xfers struct {
	sync.Mutex
	idle []*Xfer
}

// getXfer returns an idle transfer state.
func getXfer() *Xfer {
	xfers.Lock()
	defer xfers.Unlock()
	if n := len(xfers.idle); n > 0 {
		x := xfers.idle[n-1]
		xfers.idle = xfers.idle[:n-1]
		return x
	}
	return &Xfer{}
}

// putXfer returns x to the idle list, pinning nothing of its world.
func putXfer(x *Xfer) {
	x.f, x.w, x.dst, x.src = nil, wire{}, device.View{}, device.View{}
	xfers.Lock()
	xfers.idle = append(xfers.idle, x)
	xfers.Unlock()
}

// wire is one transfer's priced path: its route and the degradation
// snapshot taken when it opened.
type wire struct {
	r     route
	alpha time.Duration
	bw    float64 // per-channel bandwidth
	want  int     // channels requested per chunk
	chunk int64
}

// Xfer is one transfer's state machine (sim.Machine): the only copy of the
// fabric's pricing loop. One wire attempt is a local copy's device time, or
// the α and then, per pipeline chunk, an adaptive channel acquire through
// every pool of the route, the chunk's time, and the release. The attempt
// ends with the byte copy; on an unfaithful fabric the corruption probe and
// the CRC32C check follow, and a mismatch replays the attempt, up to
// Integrity.MaxRetries, under the degradation snapshot taken at open. A
// finished Xfer pins no buffers.
//
// Open (or OpenPrice) readies it, and either runner drives it: a process
// (sim.Proc.Drive: TryTransfer, Price) or kernel callbacks
// (sim.Kernel.Start). A machine that moves bytes as one of its phases, such
// as mpi's eager send, opens an Xfer and forwards its Advance. The zero value is ready to use; a caller that runs
// transfers itself keeps one Xfer per transfer in flight and reuses it.
type Xfer struct {
	f        *Fabric
	w        wire
	dst, src device.View
	n        int64
	move     bool // copy and check the bytes; Price only charges the time

	pc      xferStep
	attempt int
	off     int64 // the next chunk's offset
	pool    int   // the route pool being acquired
	got     int   // channels it granted
	held    int   // channels the chunk holds in every pool so far
}

// xferStep is where Advance resumes.
type xferStep uint8

const (
	xferAttempt xferStep = iota // start a wire attempt
	xferChunk                   // acquire the next chunk's channels, or finish the attempt
	xferGranted                 // pools[pool] granted got channels
	xferRelease                 // the chunk's time is up
	xferCopied                  // the attempt's wire time is up: copy the bytes
)

// Open readies x to move n bytes from the src view to the dst view: it
// checks the length and resolves the route (open), and fails before any
// time passes. TryTransfer opens its transfers with it, and so does a
// caller that forwards x's Advance from a machine of its own.
func (f *Fabric) Open(x *Xfer, dst, src device.View, n int64, o Opts) error {
	if n < 0 || n > src.Len() || n > dst.Len() {
		return fmt.Errorf("fabric: transfer of %d bytes between %d-byte src and %d-byte dst", n, src.Len(), dst.Len())
	}
	if err := x.open(f, dst.Device(), src.Device(), n, o); err != nil {
		return err
	}
	x.dst, x.src, x.move = dst, src, true
	return nil
}

// OpenPrice readies x to price n bytes from device src to device dst, as
// Price charges them, moving none: it resolves the route (open), and fails
// before any time passes. Price opens its transfers with it, and so does a
// machine that charges a hop by forwarding x's Advance.
func (f *Fabric) OpenPrice(x *Xfer, dst, src *device.Device, n int64, o Opts) error {
	return x.open(f, dst, src, n, o)
}

// open resets x to price n bytes between two devices: it resolves the
// route and snapshots any active degradation at the current instant into
// x's wire. It fails on a missing route or a severed partition.
func (x *Xfer) open(f *Fabric, dst, src *device.Device, n int64, o Opts) error {
	r, err := f.route(src, dst)
	if err != nil {
		return err
	}
	x.f, x.n, x.move, x.pc, x.attempt = f, n, false, xferAttempt, 0
	w := &x.w
	*w = wire{r: r}
	if r.local {
		return nil
	}
	now := f.k.Now()
	if f.partitioner != nil && f.partitioner.Severed(r.srcNode, r.dstNode, now) {
		return ErrPartitioned
	}
	w.alpha, w.bw, w.want, w.chunk = r.link.Alpha, r.link.ChannelBW, o.Channels, o.ChunkBytes
	maxCh := r.link.DirChannels
	if lf, ok := f.degradedFor(r, now); ok {
		if lf.AlphaScale > 0 {
			w.alpha = time.Duration(float64(w.alpha) * lf.AlphaScale)
		}
		if lf.BWScale > 0 {
			w.bw *= lf.BWScale
		}
		if lf.ChannelCap > 0 && lf.ChannelCap < maxCh {
			maxCh = lf.ChannelCap
		}
	}
	if w.want < 1 {
		w.want = 1
	}
	if w.want > maxCh {
		w.want = maxCh
	}
	if w.chunk <= 0 {
		w.chunk = DefaultChunk
	}
	return nil
}

// Advance runs the transfer up to its next wait and returns it, or returns
// the zero wait once the transfer is done.
func (x *Xfer) Advance() sim.Wait {
	r := &x.w.r
	for {
		switch x.pc {
		case xferAttempt:
			x.pc = xferCopied
			if r.local {
				return sim.Sleep(r.device.CopyTime(x.n))
			}
			x.off, x.pc = 0, xferChunk
			return sim.Sleep(x.w.alpha)
		case xferChunk:
			if x.off >= x.n {
				x.pc = xferCopied
				continue
			}
			// Acquire adaptively through every pool in order; if a later
			// pool grants less, return the surplus to the earlier ones.
			// This lets opposing flows converge to a fair split of a
			// shared duplex pool instead of alternating full-width.
			x.pool, x.pc = 0, xferGranted
			return sim.AcquireUpTo(r.pools[0], x.w.want, &x.got)
		case xferGranted:
			if x.pool == 0 {
				x.held = x.got
			} else if x.got < x.held {
				for _, prev := range r.chain()[:x.pool] {
					prev.Release(x.held - x.got)
				}
				x.held = x.got
			}
			if x.pool++; x.pool < len(r.chain()) {
				return sim.AcquireUpTo(r.pools[x.pool], x.held, &x.got)
			}
			sz := x.w.chunk
			if x.off+sz > x.n {
				sz = x.n - x.off
			}
			x.pc = xferRelease
			return sim.Sleep(time.Duration(float64(sz) / (float64(x.held) * x.w.bw) * float64(time.Second)))
		case xferRelease:
			for _, pool := range r.chain() {
				pool.Release(x.held)
			}
			x.off += x.w.chunk
			x.pc = xferChunk
		case xferCopied:
			if x.move {
				switch {
				case r.local:
					copy(x.dst.Bytes(), x.src.Bytes())
				case x.n > 0:
					copy(x.dst.Bytes()[:x.n], x.src.Bytes()[:x.n])
				}
				if (x.attempt > 0 || !r.local && x.n > 0 && !x.f.Faithful()) && x.check() {
					x.attempt++
					x.pc = xferAttempt
					continue
				}
			}
			x.dst, x.src = device.View{}, device.View{} // a finished Xfer pins no buffers
			return sim.Wait{}
		}
	}
}

// check runs an unfaithful attempt's corruption probe and CRC32C check and
// reports whether to retransmit.
func (x *Xfer) check() bool {
	f, r, n := x.f, &x.w.r, x.n
	if f.corrupter != nil {
		if offs := f.corrupter.CorruptTransfer(r.class, r.srcNode, r.dstNode, n, f.k.Now()); len(offs) > 0 {
			b := x.dst.Bytes()
			for _, off := range offs {
				if off >= 0 && off < n {
					b[off] ^= 0xff
				}
			}
			f.reg.Counter("xccl_corruptions_injected_total",
				"Transfers whose payload was corrupted on the wire, by link class.",
				metrics.Labels{"link": r.class}).Inc()
		}
	}
	if !f.integrity.Enabled {
		return false
	}
	// CRC32C of source vs destination; NIC-offloaded, so no virtual time.
	if crc32.Checksum(x.src.Bytes()[:n], castagnoli) == crc32.Checksum(x.dst.Bytes()[:n], castagnoli) {
		return false
	}
	f.reg.Counter("xccl_corruptions_detected_total",
		"Transfers whose CRC32C check caught a payload mismatch, by link class.",
		metrics.Labels{"link": r.class}).Inc()
	if x.attempt >= f.integrity.MaxRetries {
		// Out of retransmit budget: deliver the corrupt payload rather
		// than strand the collective's peer ranks, and let the policy
		// layer observe the unrecovered counter.
		f.reg.Counter("xccl_corruptions_unrecovered_total",
			"Transfers delivered corrupt after exhausting the retransmit budget, by link class.",
			metrics.Labels{"link": r.class}).Inc()
		return false
	}
	f.reg.Counter("xccl_transfer_retransmits_total",
		"Retransmissions triggered by CRC32C mismatches, by link class.",
		metrics.Labels{"link": r.class}).Inc()
	return true
}

// TryControlMsg charges the α of one small control message (e.g. an MPI
// rendezvous RTS/CTS envelope) between two devices' owning endpoints
// (ControlAlpha), returning an error when the endpoints have no route.
func (f *Fabric) TryControlMsg(p *sim.Proc, src, dst *device.Device) (time.Duration, error) {
	alpha, send, err := f.ControlAlpha(src, dst)
	if send {
		p.Sleep(alpha)
	}
	return alpha, err
}

// ControlAlpha reports the α one control message pays from src to dst if
// it starts now: the route's α, scaled like TryTransfer's by any active
// degradation window. send is false, and no message is sent, between two
// endpoints on one device. It fails like TryTransfer when the endpoints
// have no route or a partition severs them. A machine charges its control
// messages as sleeps of this α.
func (f *Fabric) ControlAlpha(src, dst *device.Device) (alpha time.Duration, send bool, err error) {
	r, err := f.route(src, dst)
	if err != nil || r.local {
		return 0, false, err
	}
	now := f.k.Now()
	if f.partitioner != nil && f.partitioner.Severed(r.srcNode, r.dstNode, now) {
		return 0, false, ErrPartitioned
	}
	alpha = r.link.Alpha
	if lf, ok := f.degradedFor(r, now); ok && lf.AlphaScale > 0 {
		alpha = time.Duration(float64(alpha) * lf.AlphaScale)
	}
	return alpha, true, nil
}
