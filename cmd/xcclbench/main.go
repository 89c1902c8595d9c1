// Command xcclbench regenerates the paper's tables and figures from the
// simulated substrate.
//
// Usage:
//
//	xcclbench -exp fig5            # one experiment, quick scale
//	xcclbench -exp all -scale full # the paper's full configurations
//	xcclbench -exp all -parallel 1 # force a serial run
//	xcclbench -exp fig6 -hier      # hierarchical collectives on the hybrid series
//	xcclbench -exp fig6 -compile   # compiled plans for the synthesized collectives
//	xcclbench -scale ranks=4096,shards=4  # parallel-engine scaling sweep
//	xcclbench -list                # enumerate experiment ids
//
// Experiment ids follow the paper: table1, fig1a, fig1b, fig3, fig4, fig5,
// fig6, fig7, fig8, fig9, fig10.
//
// Independent experiments run concurrently across a worker pool (one worker
// per CPU by default; bound it with -parallel N). Each experiment owns its
// own simulation kernel, so virtual-time results are identical to a serial
// run and are printed in paper order regardless of completion order.
//
// With -metrics <file>, runtime counters and latency histograms gathered
// across every experiment run (dispatch paths, fallbacks, tuning-table
// hits, CCL launches, MPI protocol choices) are written to <file> in
// Prometheus text format; "-" writes to stdout.
//
// With -cpuprofile/-memprofile <file>, pprof profiles of the run are
// written for use with `go tool pprof`. Experiment goroutines are tagged
// with an {experiment: id} pprof label, so per-experiment CPU cost can be
// split out with pprof's tagfocus/tagshow options.
//
// With -crash rank@step, the "elastic" exhibit fail-stops that world rank
// during that training step instead of its default injection:
//
//	xcclbench -exp elastic -crash 3@2
//
// With -partition cut@heal, the "partition" exhibit opens its network cut
// during training step <cut> and heals it before step <heal> (heal 0 makes
// the cut permanent):
//
//	xcclbench -exp partition -partition 2@4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"mpixccl/internal/experiments"
	"mpixccl/internal/metrics"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command on its arguments: results go to stdout, errors to
// stderr, and it returns the exit status, 2 for bad flags and 1 when a run
// fails.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id (or 'all')")
	scaleFlag := fs.String("scale", "quick",
		"quick or full (paper-size node counts and sweeps); or ranks=N[,shards=M] to run the scaling sweep instead of exhibits")
	list := fs.Bool("list", false, "list experiment ids and exit")
	parallel := fs.Int("parallel", 0, "max experiments in flight (0 = one per CPU, 1 = serial)")
	metricsFile := fs.String("metrics", "",
		"write accumulated runtime metrics to this file in Prometheus text format ('-' for stdout)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write an allocation profile to this file on exit")
	crash := fs.String("crash", "",
		"override the elastic exhibit's fail-stop injection as rank@step (e.g. 3@2)")
	hier := fs.Bool("hier", false,
		"run the hybrid-xCCL series with topology-aware hierarchical collectives (multi-node exhibits)")
	persistent := fs.Bool("persistent", false,
		"run the hybrid-xCCL series of the Horovod exhibits (fig7-fig10) on persistent partitioned allreduce handles")
	compile := fs.Bool("compile", false,
		"run the xCCL series with the collective compiler: cost-model-compiled plans for alltoall(v)/gather/scatter instead of the group send-recv loop")
	chaos := fs.String("chaos", "",
		"run the chaos soak instead of exhibits, as seed=N[,runs=M] (e.g. seed=7,runs=4)")
	partition := fs.String("partition", "",
		"override the partition exhibit's cut window as cut@heal training steps (heal 0 = permanent, e.g. 2@4)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	o := experiments.Options{Hier: *hier, Persistent: *persistent, Compile: *compile}
	if *crash != "" {
		var ok bool
		o.Crash.Rank, o.Crash.Step, ok = parseAt(*crash)
		if !ok {
			fmt.Fprintf(stderr, "xcclbench: bad -crash %q (want rank@step, e.g. 3@2)\n", *crash)
			return 2
		}
	}
	if *partition != "" {
		var ok bool
		o.Partition.Step, o.Partition.Heal, ok = parseAt(*partition)
		if !ok {
			fmt.Fprintf(stderr, "xcclbench: bad -partition %q (want cut@heal steps, e.g. 2@4)\n", *partition)
			return 2
		}
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	if *chaos != "" {
		seed, runs, ok := parseSpec(*chaos, "seed", "runs")
		if !ok {
			fmt.Fprintf(stderr, "xcclbench: bad -chaos %q (want seed=N[,runs=M], M >= 1)\n", *chaos)
			return 2
		}
		var reg *metrics.Registry
		if *metricsFile != "" {
			reg = metrics.NewRegistry()
		}
		out, err := experiments.RunChaos(uint64(seed), runs, reg)
		fmt.Fprint(stdout, out)
		if reg != nil {
			if werr := writeMetrics(reg, *metricsFile, stdout); werr != nil {
				fmt.Fprintf(stderr, "xcclbench: %v\n", werr)
				return 1
			}
		}
		if err != nil {
			fmt.Fprintf(stderr, "xcclbench: %v\n", err)
			return 1
		}
		return 0
	}
	if strings.HasPrefix(*scaleFlag, "ranks=") {
		ranks, shards, ok := parseScale(*scaleFlag)
		if !ok {
			fmt.Fprintf(stderr, "xcclbench: bad -scale %q (want ranks=N[,shards=M], N and M >= 1)\n", *scaleFlag)
			return 2
		}
		results, err := scaleSweep(ranks, shards)
		if err != nil {
			fmt.Fprintf(stderr, "xcclbench: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, experiments.FormatScaleTable(results))
		return 0
	}
	switch *scaleFlag {
	case "quick":
	case "full":
		o.Scale = experiments.Full
	default:
		fmt.Fprintf(stderr, "xcclbench: unknown scale %q (want quick, full, or ranks=N[,shards=M])\n", *scaleFlag)
		return 2
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "xcclbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "xcclbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *metricsFile != "" {
		o.Metrics = metrics.NewRegistry()
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.IDs()
	}
	start := time.Now()
	results := experiments.RunAll(ids, o, *parallel)
	status := 0
	for _, r := range results {
		if r.Err != nil {
			fmt.Fprintf(stderr, "xcclbench: %s: %v\n", r.ID, r.Err)
			status = 1
			continue
		}
		fmt.Fprint(stdout, r.Output)
		fmt.Fprintf(stdout, "(%s regenerated in %v wall time)\n\n", r.ID, r.Wall.Round(time.Millisecond))
	}
	if len(ids) > 1 {
		fmt.Fprintf(stdout, "(%d experiments in %v total wall time)\n", len(ids), time.Since(start).Round(time.Millisecond))
	}
	if o.Metrics != nil {
		if err := writeMetrics(o.Metrics, *metricsFile, stdout); err != nil {
			fmt.Fprintf(stderr, "xcclbench: %v\n", err)
			status = 1
		}
	}
	if *memProfile != "" {
		if err := writeMemProfile(*memProfile); err != nil {
			fmt.Fprintf(stderr, "xcclbench: %v\n", err)
			status = 1
		}
	}
	return status
}

// parseAt parses the a@b fault specs (-crash rank@step, -partition
// cut@heal): two non-negative decimal integers in canonical form and
// nothing else, so every accepted spec prints back as itself.
func parseAt(spec string) (a, b int, ok bool) {
	as, bs, ok := strings.Cut(spec, "@")
	a, okA := parseCount(as)
	b, okB := parseCount(bs)
	return a, b, ok && okA && okB
}

// parseCount parses a non-negative decimal integer in the form %d prints
// it: no sign and no leading zero.
func parseCount(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, err == nil && n >= 0 && strconv.Itoa(n) == s
}

// parseSpec parses the key=N[,key=M] run specs (-scale ranks=N[,shards=M],
// -chaos seed=N[,runs=M]): the first key and its count, then optionally a
// comma, the second key and a positive count, each count as parseCount
// reads it, and nothing else. b is 0 when the second field is absent.
func parseSpec(spec, key1, key2 string) (a, b int, ok bool) {
	first, second, both := strings.Cut(spec, ",")
	a, ok = parseField(first, key1)
	if both {
		var okB bool
		b, okB = parseField(second, key2)
		ok = ok && okB && b >= 1
	}
	return a, b, ok
}

// parseField parses one key=N field of a run spec.
func parseField(field, key string) (int, bool) {
	v, found := strings.CutPrefix(field, key+"=")
	n, ok := parseCount(v)
	return n, found && ok
}

// parseScale parses -scale ranks=N[,shards=M]: at least one rank, and a
// shard sweep up to M (default 1).
func parseScale(spec string) (ranks, shards int, ok bool) {
	ranks, shards, ok = parseSpec(spec, "ranks", "shards")
	return ranks, max(shards, 1), ok && ranks >= 1
}

// scaleSweep runs the rows of -scale ranks=N[,shards=M]: the
// 4096-rank-class hierarchical AllReduce scaling model, once per shard count
// (powers of two up to M, plus M itself). Virtual times must be identical
// down the column; wall time is where shards pay off on multi-core hosts.
// RunScale clamps the shard count to the node count, so the sweep stops at
// the first row that owns one node per shard: a wider request would repeat
// it.
func scaleSweep(ranks, maxShards int) ([]experiments.ScaleResult, error) {
	var counts []int
	for s := 1; s <= maxShards; s *= 2 {
		counts = append(counts, s)
	}
	if last := counts[len(counts)-1]; last != maxShards {
		counts = append(counts, maxShards)
	}
	var results []experiments.ScaleResult
	for _, s := range counts {
		r, err := experiments.RunScale(experiments.ScaleConfig{Ranks: ranks, Shards: s})
		if err != nil {
			return nil, err
		}
		results = append(results, r)
		if r.Shards == r.Nodes {
			break
		}
	}
	return results, nil
}

// writeMetrics writes reg to the -metrics path, "-" meaning stdout.
func writeMetrics(reg *metrics.Registry, path string, stdout io.Writer) error {
	if path == "-" {
		return reg.WritePrometheus(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle live-heap accounting before the snapshot
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
