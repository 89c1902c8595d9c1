package omb

import (
	"fmt"

	"mpixccl/internal/ccl"
	"mpixccl/internal/core"
	"mpixccl/internal/world"
)

// defaultChunkSweep is the hierarchical pipeline chunk sizes Tune tries
// when the caller does not override Config.ChunkSweep.
var defaultChunkSweep = []int64{256 << 10, 1 << 20}

// hierOps marks the collectives with a hierarchical CCL schedule worth
// sweeping (the rest only have the binary MPI/CCL decision).
func hierOp(op Collective) bool {
	switch op {
	case Allreduce, Bcast, Allgather:
		return true
	}
	return false
}

// planSweep lists the compiled-plan strategy keys Tune measures for a
// synthesized collective (the ops the compiler lowers). Phased pairing and
// leader-staged trees only exist across nodes; on one node the compiled
// direct fan is the sole alternative to the group send-recv loop.
func planSweep(op Collective, multiNode bool) []string {
	switch op {
	case Alltoall:
		if multiNode {
			return []string{"direct", "phased", "phased:chunk=1048576"}
		}
		return []string{"direct"}
	case Gather, Scatter:
		if multiNode {
			return []string{"direct",
				"staged:intra=flat,stripe=2,depth=2",
				"staged:intra=tree,stripe=2,depth=1"}
		}
		return []string{"direct"}
	}
	return nil
}

// tuneVariant is one CCL candidate in the sweep: the table band that
// selects it and its measured per-size results.
type tuneVariant struct {
	band core.Threshold
	res  []Result
}

// Tune performs the offline tuning of §3.4, extended with algorithm-level
// selection: for every operation it measures the MPI path, the flat CCL
// path, on multi-node shapes the hierarchical CCL schedule at each
// candidate pipeline chunk size, and — for the synthesized collectives —
// every compiled-plan strategy the collective compiler offers, then
// records the winner per size band. The resulting v3 table carries the
// algorithm family, chunk, and winning plan key alongside the MPI/CCL
// path, ready for the hybrid runtime to honor.
func Tune(cfg Config, ops []Collective) (*core.TuningTable, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		ops = []Collective{Allreduce, Reduce, Bcast, Alltoall, Allgather, Gather, Scatter}
	}
	chunks := cfg.ChunkSweep
	if chunks == nil {
		chunks = defaultChunkSweep
	}
	table := &core.TuningTable{System: cfg.System, Backend: string(cfg.Backend)}
	for _, op := range ops {
		mpiCfg := cfg
		mpiCfg.Stack = world.StackMPI
		mpiRes, err := RunCollective(mpiCfg, op)
		if err != nil {
			return nil, fmt.Errorf("tune %s (mpi): %w", op, err)
		}
		cclCfg := cfg
		cclCfg.Stack = world.StackPureXCCL
		cclRes, err := RunCollective(cclCfg, op)
		if err != nil {
			return nil, fmt.Errorf("tune %s (ccl): %w", op, err)
		}
		variants := []tuneVariant{{band: core.Threshold{Path: core.PathCCL}, res: cclRes}}
		if !cfg.NoAlgoSweep && cfg.Nodes > 1 && hierOp(op) {
			for _, chunk := range chunks {
				band := core.Threshold{Path: core.PathCCL,
					Algo: ccl.AlgoHierarchical, ChunkBytes: chunk}
				// Force the candidate through a single-band table on the
				// hybrid stack — the exact dispatch plumbing production
				// tables use, so measurements include its overheads.
				forced := &core.TuningTable{System: cfg.System, Backend: string(cfg.Backend)}
				forced.Set(core.OpKind(op), []core.Threshold{band})
				hierCfg := cfg
				hierCfg.Stack = world.StackHybrid
				hierCfg.Table = forced
				res, err := RunCollective(hierCfg, op)
				if err != nil {
					return nil, fmt.Errorf("tune %s (hierarchical/%d): %w", op, chunk, err)
				}
				variants = append(variants, tuneVariant{band: band, res: res})
			}
		}
		if !cfg.NoAlgoSweep {
			for _, key := range planSweep(op, cfg.Nodes > 1) {
				band := core.Threshold{Path: core.PathCCL, Plan: key}
				forced := &core.TuningTable{System: cfg.System, Backend: string(cfg.Backend)}
				forced.Set(core.OpKind(op), []core.Threshold{band})
				planCfg := cfg
				planCfg.Stack = world.StackHybrid
				planCfg.Table = forced
				res, err := RunCollective(planCfg, op)
				if err != nil {
					return nil, fmt.Errorf("tune %s (plan %s): %w", op, key, err)
				}
				variants = append(variants, tuneVariant{band: band, res: res})
			}
		}
		var rule []core.Threshold
		have := false
		var last core.Threshold
		for i := range mpiRes {
			best := mpiRes[i].Latency
			win := core.Threshold{Path: core.PathMPI}
			for _, v := range variants {
				if i < len(v.res) && v.res[i].Latency < best {
					best = v.res[i].Latency
					win = v.band
				}
			}
			if have && win.Path == last.Path && win.Algo == last.Algo &&
				win.ChunkBytes == last.ChunkBytes && win.Plan == last.Plan {
				// Extend the current band.
				rule[len(rule)-1].MaxBytes = mpiRes[i].Bytes
				continue
			}
			win.MaxBytes = mpiRes[i].Bytes
			rule = append(rule, win)
			last, have = win, true
		}
		if len(rule) > 0 {
			rule[len(rule)-1].MaxBytes = 0 // open-ended final band
		}
		table.Set(core.OpKind(op), rule)
	}
	return table, nil
}
