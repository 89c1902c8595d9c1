// MSCCL custom algorithms: author a custom collective schedule with the
// mini-MSCCL interpreter, register it on a communicator, and compare it
// against the built-in ring/tree algorithms — the programmability MSCCL
// adds on top of its embedded NCCL (§2.1, Fig 5d).
//
//	go run ./examples/msccl_custom
package main

import (
	"fmt"
	"log"
	"time"

	"mpixccl/internal/ccl"
	"mpixccl/internal/ccl/msccl"
	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// measure runs one 8-rank allreduce of the given size and returns its
// completion latency.
func measure(withCustom bool, bytes int64) time.Duration {
	kernel := sim.NewKernel()
	system := topology.ThetaGPU(kernel, 1)
	fab := fabric.New(kernel, system)
	var comms []*ccl.Comm
	var err error
	if withCustom {
		comms, err = msccl.New(fab, system.Devices()) // allpairs pre-registered
	} else {
		comms, err = msccl.NewPlain(fab, system.Devices()) // embedded NCCL only
	}
	if err != nil {
		log.Fatal(err)
	}
	count := int(bytes / 4)
	var lat time.Duration
	bar := sim.NewBarrier(kernel, len(comms))
	err = ccl.Run(comms, func(cc *ccl.Comm, s *device.Stream, p *sim.Proc) {
		send := cc.Device().MustMalloc(bytes)
		recv := cc.Device().MustMalloc(bytes)
		send.FillFloat32(float32(cc.Rank() + 1))
		bar.Wait(p)
		start := p.Now()
		if err := cc.AllReduce(send, recv, count, ccl.Float32, ccl.Sum, s); err != nil {
			log.Fatal(err)
		}
		s.Synchronize(p)
		if d := p.Now() - start; d > lat {
			lat = d
		}
		if recv.Float32(0) != 36 {
			log.Fatalf("wrong sum %v", recv.Float32(0))
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	return lat
}

func main() {
	// The built-in allpairs schedule: show its structure.
	algo := ccl.AllPairsAllReduce(8, msccl.CustomMinBytes, msccl.CustomMaxBytes)
	fmt.Printf("schedule %q: %d ranks, %d chunks, %d steps, window [%d B, %d B]\n",
		algo.Name, algo.Ranks, algo.NChunks, len(algo.Steps), algo.MinBytes, algo.MaxBytes)
	for i, step := range algo.Steps {
		fmt.Printf("  step %d: %d chunk transfers\n", i, len(step.Xfers))
	}

	fmt.Printf("\nMSCCL allreduce on 8 A100s, custom allpairs vs embedded NCCL %s:\n", msccl.BackendVersion)
	fmt.Printf("%12s %16s %16s %8s\n", "bytes", "allpairs", "ring/tree", "speedup")
	for bytes := int64(1 << 10); bytes <= 256<<10; bytes *= 4 {
		with := measure(true, bytes)
		without := measure(false, bytes)
		fmt.Printf("%12d %16v %16v %7.2fx\n", bytes, with, without, float64(without)/float64(with))
	}

	// Author a fresh custom schedule from scratch: a two-step "star"
	// reduce-broadcast through rank 0, and validate it.
	star := &ccl.Algo{
		Name: "star", Ranks: 4, NChunks: 1,
		MinBytes: 1, MaxBytes: 64 << 10,
	}
	var s1, s2 ccl.Step
	for r := 1; r < 4; r++ {
		s1.Xfers = append(s1.Xfers, ccl.ChunkXfer{From: r, To: 0, Kind: ccl.ReduceOp})
		s2.Xfers = append(s2.Xfers, ccl.ChunkXfer{From: 0, To: r, Kind: ccl.Copy})
	}
	star.Steps = []ccl.Step{s1, s2}
	if err := star.Validate(); err != nil {
		log.Fatal(err)
	}

	kernel := sim.NewKernel()
	system := topology.ThetaGPU(kernel, 1)
	fab := fabric.New(kernel, system)
	comms, err := msccl.NewPlain(fab, system.Devices()[:4])
	if err != nil {
		log.Fatal(err)
	}
	if err := comms[0].RegisterAlgo(star); err != nil {
		log.Fatal(err)
	}
	results := make([]float32, 4)
	err = ccl.Run(comms, func(cc *ccl.Comm, s *device.Stream, p *sim.Proc) {
		send := cc.Device().MustMalloc(4096)
		recv := cc.Device().MustMalloc(4096)
		send.FillFloat32(float32(cc.Rank() + 1))
		if err := cc.AllReduce(send, recv, 1024, ccl.Float32, ccl.Sum, s); err != nil {
			log.Fatal(err)
		}
		s.Synchronize(p)
		results[cc.Rank()] = recv.Float32(512)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncustom 'star' schedule on 4 ranks: sums = %v (want all 10)\n", results)
}
