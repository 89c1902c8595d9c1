package omb

import (
	"mpixccl/internal/ccl"
	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

// RunMultiBW is osu_mbw_mr: aggregate multi-pair bandwidth and message
// rate. Pairs are split across the first two nodes when cfg.Nodes > 1
// (rank i on node 0 paired with rank i on node 1), otherwise split within
// one node — the saturation test for NIC and switch pools.
func RunMultiBW(cfg Config, pairs int) ([]Result, error) {
	cfg.fillDefaults()
	w, err := buildWorld(&cfg)
	if err != nil {
		return nil, err
	}
	perNode := w.sys.DevicesPerNode()
	if pairs <= 0 {
		pairs = perNode / 2
		if cfg.Nodes > 1 {
			pairs = perNode
		}
	}
	devs := w.sys.Devices()
	type pair struct{ a, b int }
	var plan []pair
	if cfg.Nodes > 1 {
		if pairs > perNode {
			pairs = perNode
		}
		for i := 0; i < pairs; i++ {
			plan = append(plan, pair{i, perNode + i})
		}
	} else {
		if pairs > perNode/2 {
			pairs = perNode / 2
		}
		for i := 0; i < pairs; i++ {
			plan = append(plan, pair{2 * i, 2*i + 1})
		}
	}
	// Build a communicator over exactly the participating devices, in plan
	// order: even comm-ranks send, odd comm-ranks receive.
	commDevs := devs[:0:0]
	for _, pr := range plan {
		commDevs = append(commDevs, devs[pr.a], devs[pr.b])
	}
	comms, err := pureCCLComms(&cfg, w, commDevs)
	if err != nil {
		return nil, err
	}
	sizes := Sizes(cfg.MinBytes, cfg.MaxBytes)
	results := make([]Result, len(sizes))
	bar := sim.NewBarrier(w.k, len(comms))
	err = ccl.Run(comms, func(cc *ccl.Comm, s *device.Stream, p *sim.Proc) {
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
			bar.Wait(p)
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
			bar.Wait(p)
			if r == 0 {
				payload := float64(bytes) * bwWindow * float64(len(plan))
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
