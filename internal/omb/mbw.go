package omb

import (
	"mpixccl/internal/ccl"
	"mpixccl/internal/device"
	"mpixccl/internal/topology"
	"mpixccl/internal/world"
)

// RunMultiBW is osu_mbw_mr: aggregate multi-pair bandwidth and message
// rate. Pairs are split across the first two nodes when cfg.Nodes > 1
// (rank i on node 0 paired with rank i on node 1), otherwise split within
// one node — the saturation test for NIC and switch pools.
func RunMultiBW(cfg Config, pairs int) ([]Result, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	sizes := Sizes(cfg.MinBytes, cfg.MaxBytes)
	results := make([]Result, len(sizes))
	// The communicator spans exactly the participating devices, in plan
	// order: even comm-ranks send, odd comm-ranks receive.
	plan := func(sys *topology.System) []*device.Device {
		perNode := sys.DevicesPerNode()
		// Pair i is devices (2i, 2i+1) on one node, or device i of the
		// first node with device i of the second.
		step, stride, most := 2, 1, perNode/2
		if cfg.Nodes > 1 {
			step, stride, most = 1, perNode, perNode
		}
		if pairs <= 0 || pairs > most {
			pairs = most
		}
		devs := sys.Devices()
		var out []*device.Device
		for i := 0; i < pairs; i++ {
			out = append(out, devs[step*i], devs[step*i+stride])
		}
		return out
	}
	err := world.RunCCL(cfg.spec(), plan, func(rk *world.CCLRank) {
		cc, s, p := rk.CCL(), rk.Stream(), rk.Proc()
		r := cc.Rank()
		buf := cc.Device().MustMalloc(sizes[len(sizes)-1])
		ack := cc.Device().MustMalloc(4)
		peer := r ^ 1
		sender := r%2 == 0
		for si, bytes := range sizes {
			count := int(bytes / 4)
			if count == 0 {
				count = 1
			}
			msg := buf.Slice(0, int64(count)*4)
			rk.Barrier()
			start := p.Now()
			check(cc.GroupStart())
			for wi := 0; wi < bwWindow; wi++ {
				if sender {
					check(cc.Send(msg, count, ccl.Float32, peer, s))
				} else {
					check(cc.Recv(msg, count, ccl.Float32, peer, s))
				}
			}
			check(cc.GroupEnd())
			if sender {
				check(cc.Recv(ack, 1, ccl.Float32, peer, s))
			} else {
				check(cc.Send(ack, 1, ccl.Float32, peer, s))
			}
			s.Synchronize(p)
			elapsed := p.Now() - start
			rk.Barrier()
			if r == 0 {
				payload := float64(bytes) * bwWindow * float64(pairs)
				results[si].Bytes = bytes
				results[si].Latency = elapsed
				results[si].BandwidthMBs = payload / elapsed.Seconds() / 1e6
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
