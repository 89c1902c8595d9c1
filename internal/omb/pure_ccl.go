package omb

import (
	"mpixccl/internal/ccl"
	"mpixccl/internal/core"
	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

// pureCCLComms builds the vendor-library communicator over devs that the
// pure-CCL runners drive, reporting into cfg.Metrics.
func pureCCLComms(cfg *Config, w *world, devs []*device.Device) ([]*ccl.Comm, error) {
	kind, err := core.ResolveBackend(cfg.Backend, devs[0].Kind)
	if err != nil {
		return nil, err
	}
	comms, err := core.NewBackendComms(kind, w.fab, devs)
	if err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		comms[0].SetMetrics(cfg.Metrics)
	}
	return comms, nil
}

// runPureCCLCollective drives the vendor library directly — the dashed
// "Pure NCCL/MSCCL" lines extracted from OMB's CCL benchmarks.
func runPureCCLCollective(cfg *Config, w *world, nranks int, body func(d *collDriver)) error {
	comms, err := pureCCLComms(cfg, w, w.sys.Devices()[:nranks])
	if err != nil {
		return err
	}
	bar := sim.NewBarrier(w.k, nranks)
	return ccl.Run(comms, func(cc *ccl.Comm, s *device.Stream, p *sim.Proc) {
		body(&collDriver{
			do: func(op Collective, send, recv *device.Buffer, count int) {
				pureCCLOp(cc, s, p, op, send, recv, count)
			},
			barrier: func() { bar.Wait(p) },
			proc:    p, dev: cc.Device(), rank: cc.Rank(),
		})
	})
}

// pureCCLOp issues one blocking collective on the raw CCL, rooted at rank
// 0. Operations the CCL does not provide (alltoall, gather, scatter) run
// ccl's group send/recv synthesis (plan ""), as OMB's NCCL benchmarks do.
func pureCCLOp(cc *ccl.Comm, s *device.Stream, p *sim.Proc, op Collective, send, recv *device.Buffer, count int) {
	dt := ccl.Float32
	bytes := int64(count) * 4
	all := bytes * int64(cc.Size())
	var err error
	switch op {
	case Allreduce:
		err = cc.AllReduce(send.Slice(0, bytes), recv.Slice(0, bytes), count, dt, ccl.Sum, s)
	case Reduce:
		err = cc.Reduce(send.Slice(0, bytes), recv.Slice(0, bytes), count, dt, ccl.Sum, 0, s)
	case Bcast:
		err = cc.Broadcast(send.Slice(0, bytes), send.Slice(0, bytes), count, dt, 0, s)
	case Allgather:
		err = cc.AllGather(send.Slice(0, bytes), recv.Slice(0, all), count, dt, s)
	case Alltoall:
		err = cc.Alltoall(send.Slice(0, all), recv.Slice(0, all), count, dt, "", s)
	case Gather:
		err = cc.Gather(send.Slice(0, bytes), recv.Slice(0, all), count, dt, 0, "", s)
	case Scatter:
		err = cc.Scatter(send.Slice(0, all), recv.Slice(0, bytes), count, dt, 0, "", s)
	}
	if err != nil {
		panic(err)
	}
	s.Synchronize(p)
}
