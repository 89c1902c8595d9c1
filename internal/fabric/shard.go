package fabric

import (
	"fmt"
	"time"

	"mpixccl/internal/device"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// Sharded is a cluster fabric partitioned across a sim.Sharded engine: one
// sub-System and one Fabric per shard, each owning a node-aligned block of
// the cluster (topology.Partition). All intra-node and intra-shard traffic
// goes through the shard-local Fabric exactly as in a serial world —
// contention pool tables, degrader state and integrity retransmit state all
// stay shard-local, so no fabric state is ever touched from two OS threads.
// Cross-shard traffic (inter-node hops whose endpoints live on different
// shards) is priced by the pure InterTime and carried as engine injections
// by the model.
type Sharded struct {
	eng   *sim.Sharded
	part  topology.Partition
	inter topology.Link
	sys   []*topology.System
	fab   []*Fabric
}

// NewSharded builds one sub-system + fabric per shard from the same config.
// Device IDs and node indices inside each sub-system are shard-local;
// Partition maps between global and local node numbering.
func NewSharded(eng *sim.Sharded, cfg topology.Config, part topology.Partition) *Sharded {
	if eng.Shards() != part.Shards {
		panic(fmt.Sprintf("fabric: engine has %d shards, partition %d", eng.Shards(), part.Shards))
	}
	s := &Sharded{eng: eng, part: part, inter: cfg.Inter}
	for i := 0; i < part.Shards; i++ {
		c := cfg
		c.NumNodes = part.NodesOn(i)
		sys := topology.Build(eng.Kernel(i), c)
		s.sys = append(s.sys, sys)
		s.fab = append(s.fab, New(eng.Kernel(i), sys))
	}
	return s
}

// Engine returns the owning sharded engine.
func (s *Sharded) Engine() *sim.Sharded { return s.eng }

// Partition returns the node-to-shard map.
func (s *Sharded) Partition() topology.Partition { return s.part }

// Fabric returns shard i's local fabric.
func (s *Sharded) Fabric(i int) *Fabric { return s.fab[i] }

// System returns shard i's local sub-system.
func (s *Sharded) System(i int) *topology.System { return s.sys[i] }

// Inter returns the inter-node link class.
func (s *Sharded) Inter() topology.Link { return s.inter }

// Device resolves a (global node, local device) pair to the owning shard's
// device object.
func (s *Sharded) Device(globalNode, dev int) *device.Device {
	shard := s.part.ShardOf(globalNode)
	return s.sys[shard].Nodes[s.part.LocalNode(globalNode)].Devices[dev]
}

// SetFaults attaches a fault agent to shard i's fabric. Agents must not be
// shared across shards: give each shard its own identically-seeded plan so
// degrader and corruption state stay thread-local.
func (s *Sharded) SetFaults(i int, agent any) { s.fab[i].SetFaults(agent) }

// InterTime prices one inter-node hop as a pure function, splitting the
// cost the way a cross-shard sender needs it: the sender sleeps serialize
// (channel-limited wire occupancy) on its own clock, then injects the
// arrival at +alpha. serialize+alpha equals the uncontended α–β price the
// serial fabric charges for the same hop under the same LinkFault, so a
// model that routes every inter-node hop through InterTime gets identical
// virtual times at any shard count. Contention pools are not consulted —
// the price is exact for single-flow-per-direction patterns (a hierarchical
// leader ring) and optimistic otherwise.
func (s *Sharded) InterTime(n int64, channels int, lf LinkFault, degraded bool) (serialize, alpha time.Duration) {
	l := s.inter
	a := l.Alpha
	bw := l.ChannelBW
	maxCh := l.DirChannels
	if degraded {
		if lf.AlphaScale > 0 {
			a = time.Duration(float64(a) * lf.AlphaScale)
		}
		if lf.BWScale > 0 {
			bw *= lf.BWScale
		}
		if lf.ChannelCap > 0 && lf.ChannelCap < maxCh {
			maxCh = lf.ChannelCap
		}
	}
	if channels < 1 {
		channels = 1
	}
	if channels > maxCh {
		channels = maxCh
	}
	if n <= 0 {
		return 0, a
	}
	return time.Duration(float64(n) / (float64(channels) * bw) * float64(time.Second)), a
}
