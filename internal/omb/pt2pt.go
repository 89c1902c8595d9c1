package omb

import (
	"fmt"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/device"
	"mpixccl/internal/topology"
	"mpixccl/internal/world"
)

// Pt2PtKind names an OMB point-to-point benchmark.
type Pt2PtKind string

// Point-to-point benchmarks.
const (
	// LatencyBench is osu_latency: ping-pong, reported one-way.
	LatencyBench Pt2PtKind = "latency"
	// BandwidthBench is osu_bw: windowed back-to-back sends.
	BandwidthBench Pt2PtKind = "bw"
	// BiBandwidthBench is osu_bibw: simultaneous windows both ways.
	BiBandwidthBench Pt2PtKind = "bibw"
)

// bwWindow is OMB's default window size (reduced from 64 to bound event
// counts; bandwidth is window-size independent once the pipe is full).
const bwWindow = 16

// RunPt2Pt measures a point-to-point benchmark between two ranks over the
// vendor CCL (xcclSend/xcclRecv), the paper's Fig 3 (intra-node) and
// Fig 4 (inter-node) depending on cfg.Nodes: with one node both endpoints
// share it; with two or more, the peer sits on the second node.
func RunPt2Pt(cfg Config, bench Pt2PtKind) ([]Result, error) {
	switch bench {
	case LatencyBench, BandwidthBench, BiBandwidthBench:
	default:
		return nil, fmt.Errorf("omb: unknown pt2pt bench %q", bench)
	}
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	sizes := Sizes(cfg.MinBytes, cfg.MaxBytes)
	results := make([]Result, len(sizes))
	pair := func(sys *topology.System) []*device.Device {
		if cfg.Nodes > 1 {
			return []*device.Device{sys.Device(0), sys.Nodes[1].Devices[0]}
		}
		return []*device.Device{sys.Device(0), sys.Device(1)}
	}
	err := world.RunCCL(cfg.spec(), pair, func(r *world.CCLRank) {
		cc, s, p := r.CCL(), r.Stream(), r.Proc()
		rank := cc.Rank()
		buf := cc.Device().MustMalloc(sizes[len(sizes)-1])
		buf2 := cc.Device().MustMalloc(sizes[len(sizes)-1])
		ack := cc.Device().MustMalloc(4)
		for si, bytes := range sizes {
			// Elements are float32 so the same loop drives HCCL, whose
			// datatype matrix is float-only (the paper's OMB Habana port).
			count := int(bytes / 4)
			if count == 0 {
				count = 1
			}
			msgBytes := int64(count) * 4
			msg := buf.Slice(0, msgBytes)
			msg2 := buf2.Slice(0, msgBytes)
			r.Barrier()
			start := p.Now()
			iters := cfg.Iterations
			for it := 0; it < iters; it++ {
				switch bench {
				case LatencyBench:
					if rank == 0 {
						check(cc.Send(msg, count, ccl.Float32, 1, s))
						check(cc.Recv(msg, count, ccl.Float32, 1, s))
					} else {
						check(cc.Recv(msg, count, ccl.Float32, 0, s))
						check(cc.Send(msg, count, ccl.Float32, 0, s))
					}
					s.Synchronize(p)
				case BandwidthBench:
					// The window is fused into one group (a single launch),
					// as OMB's CCL bandwidth benchmark does with grouped
					// isend/irecv.
					check(cc.GroupStart())
					if rank == 0 {
						for wi := 0; wi < bwWindow; wi++ {
							check(cc.Send(msg, count, ccl.Float32, 1, s))
						}
					} else {
						for wi := 0; wi < bwWindow; wi++ {
							check(cc.Recv(msg, count, ccl.Float32, 0, s))
						}
					}
					check(cc.GroupEnd())
					if rank == 0 {
						check(cc.Recv(ack, 1, ccl.Float32, 1, s))
					} else {
						check(cc.Send(ack, 1, ccl.Float32, 0, s))
					}
					s.Synchronize(p)
				case BiBandwidthBench:
					peer := 1 - rank
					check(cc.GroupStart())
					for wi := 0; wi < bwWindow; wi++ {
						check(cc.Send(msg, count, ccl.Float32, peer, s))
						check(cc.Recv(msg2, count, ccl.Float32, peer, s))
					}
					check(cc.GroupEnd())
					s.Synchronize(p)
				default:
					panic(fmt.Sprintf("omb: unknown pt2pt bench %q", bench))
				}
			}
			elapsed := p.Now() - start
			if rank == 0 {
				results[si].Bytes = bytes
				switch bench {
				case LatencyBench:
					results[si].Latency = elapsed / time.Duration(2*iters)
				case BandwidthBench:
					payload := float64(bytes) * bwWindow * float64(iters)
					results[si].Latency = elapsed / time.Duration(iters)
					results[si].BandwidthMBs = payload / elapsed.Seconds() / 1e6
				case BiBandwidthBench:
					payload := 2 * float64(bytes) * bwWindow * float64(iters)
					results[si].Latency = elapsed / time.Duration(iters)
					results[si].BandwidthMBs = payload / elapsed.Seconds() / 1e6
				}
			}
			r.Barrier()
		}
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
