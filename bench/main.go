// Command bench is the benchmark of record for mpixccl: five workloads
// driven through the public APIs of core, dl and experiments, each round
// in a fresh child process, reporting the simulator's host cost (wall
// time, memory) and, as a correctness check, the modeled virtual time.
//
//	go run . -workload latency -seed 1             # one workload
//	go run . -workload all -seed 1 -out base.jsonl # all five, rounds interleaved
//	go run . -workload train -trace 1              # per-layer metrics
//	go run . compare base.jsonl new.jsonl          # paired comparison
//
// See README.md for the workloads, metrics and recorded baselines.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareCmd(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Uint64("seed", 1, "input seed: op/size sequence, payload values, scale digest salt")
		seconds = flag.Float64("seconds", 10, "measured seconds per workload, split across rounds")
		trace   = flag.Int("trace", 0, "1 = report per-layer metrics from traced rounds instead of end-to-end ones")
		rounds  = flag.Int("rounds", 0, "rounds per workload (0 = 5, or 4 with -trace 1, which needs at least 2)")
		verify  = flag.Bool("verify", false, "check full buffers and cross-check modeled time against dl.Train and serial RunScale")
		out     = flag.String("out", "", "append this run's per-workload results to a JSON lines file, for compare")
		child   = flag.Bool("child", false, "internal: run one round in this process")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fail("-seconds must be positive")
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else if w, ok := findWorkload(*name); ok {
		ws = []workload{w}
	} else {
		fail(fmt.Sprintf("unknown workload %q (want one of %s, or all)", *name, strings.Join(workloadNames(), ", ")))
	}
	if *child {
		runChild(ws[0], *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *verify)
		return
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, rounds: *rounds, verify: *verify}
	if err := run(ws, cfg, *out, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	flag.Usage()
	os.Exit(2)
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}
