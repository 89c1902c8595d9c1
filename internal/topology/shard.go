package topology

import (
	"fmt"
	"time"
)

// Partition maps a cluster's nodes onto simulation shards. Partitioning is
// node-aligned — a node's devices never split across shards — so all
// intra-node traffic (the hot path under hierarchical plans) stays
// shard-local and only inter-node links ever cross a shard boundary. That
// makes the inter-node α the minimum cross-shard latency, which is exactly
// the conservative lookahead the sharded engine needs.
//
// Nodes are assigned in contiguous blocks: shard s owns global nodes
// [s·N/S, (s+1)·N/S). Contiguity keeps hierarchical leader rings mostly
// shard-local too (a leader's ring neighbor is usually in the same block).
type Partition struct {
	NumNodes int
	Shards   int
}

// PartitionNodes builds a node-aligned partition of nodes over shards.
// Shard counts above the node count are clamped (a shard must own at least
// one node to own anything).
func PartitionNodes(nodes, shards int) Partition {
	if nodes < 1 {
		panic(fmt.Sprintf("topology: partition of %d nodes", nodes))
	}
	if shards < 1 {
		shards = 1
	}
	if shards > nodes {
		shards = nodes
	}
	return Partition{NumNodes: nodes, Shards: shards}
}

// ShardOf reports which shard owns a global node index: the last shard s
// whose block starts at or before node, s·N/S <= node. When S divides N
// this is node·S/N; otherwise that formula disagrees with NodeRange.
func (p Partition) ShardOf(node int) int {
	return ((node+1)*p.Shards - 1) / p.NumNodes
}

// NodeRange reports the half-open global node range [lo, hi) owned by a
// shard.
func (p Partition) NodeRange(shard int) (lo, hi int) {
	return shard * p.NumNodes / p.Shards, (shard + 1) * p.NumNodes / p.Shards
}

// NodesOn reports how many nodes a shard owns.
func (p Partition) NodesOn(shard int) int {
	lo, hi := p.NodeRange(shard)
	return hi - lo
}

// LocalNode converts a global node index to the owning shard's local index.
func (p Partition) LocalNode(node int) int {
	lo, _ := p.NodeRange(p.ShardOf(node))
	return node - lo
}

// Lookahead returns the conservative synchronization horizon for a system
// partitioned node-aligned: the inter-node link α, the minimum virtual
// latency any cross-shard interaction can have. With a single shard there
// are no cross-shard edges and the horizon is irrelevant; zero is returned
// so callers can gate on it.
func (p Partition) Lookahead(inter Link) time.Duration {
	if p.Shards <= 1 {
		return 0
	}
	return inter.Alpha
}
