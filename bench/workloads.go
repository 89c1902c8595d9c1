package main

import (
	"fmt"
	"time"

	"mpixccl/internal/core"
	"mpixccl/internal/device"
	"mpixccl/internal/dl"
	"mpixccl/internal/experiments"
	"mpixccl/internal/fabric"
	"mpixccl/internal/mpi"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// workload is one input set the benchmark runs. run builds the world,
// warms it up, calls e.begin, then runs unit ops while e.next allows.
type workload struct {
	name string
	why  string
	// procs is the workload's GOMAXPROCS: 1 for worlds on the serial
	// kernel, which runs one rank at a time (a second thread only bounces
	// the hand-offs between CPUs), 2 for the 2-shard scale model.
	procs int
	run   func(e *env) error
}

// The workloads. Each stresses a different set of layers; README.md maps
// which per-layer metric should move which end-to-end metric on which.
var workloads = []workload{
	{"latency", "small barrier-separated collectives on 16 ranks: sim hand-offs, mpi protocols and core dispatch dominate host time",
		1, func(e *env) error { return runCollectives(e, latencyShape) }},
	{"bandwidth", "1-4 MiB hierarchical and compiled collectives on 16 ranks: ccl executors, fabric transfers and elem reduce dominate",
		1, func(e *env) error { return runCollectives(e, bandwidthShape) }},
	{"train", "Horovod-style ResNet-50 steps on 8 ranks with one-shot in-place allreduce per fusion bucket",
		1, func(e *env) error { return runTrain(e, false) }},
	{"train-persistent", "the same training steps on partitioned persistent allreduce handles: persistent engines and Init cost",
		1, func(e *env) error { return runTrain(e, true) }},
	{"scale", "4096-rank hierarchical allreduce model on the 2-shard partitioned engine: sharded sim and fabric only",
		2, runScale},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Collective workloads.

type collOp string

const (
	opAllreduce     collOp = "allreduce"
	opReduce        collOp = "reduce"
	opBcast         collOp = "bcast"
	opAllgather     collOp = "allgather"
	opAlltoall      collOp = "alltoall"
	opReduceScatter collOp = "reducescatter"
)

// collShape is a collective workload: the ops and per-rank buffer sizes it
// draws from, and the runtime configuration it dispatches under.
type collShape struct {
	ops  []collOp
	bins []int64 // per-rank buffer bytes; powers of two, so a uniform draw is log-uniform
	hier bool    // hierarchical tuning table (NCCL, multi-node)
	comp bool    // collective compiler on
}

var latencyShape = collShape{
	ops:  []collOp{opAllreduce, opBcast, opReduce, opAllgather, opAlltoall},
	bins: powersOfTwo(8, 64<<10),
}

var bandwidthShape = collShape{
	ops:  []collOp{opAllreduce, opAllgather, opBcast, opReduceScatter, opAlltoall},
	bins: powersOfTwo(1<<20, 4<<20),
	hier: true,
	comp: true,
}

func powersOfTwo(lo, hi int64) []int64 {
	var out []int64
	for b := lo; b <= hi; b *= 2 {
		out = append(out, b)
	}
	return out
}

// collStep is one collective call: an op at a per-rank buffer size.
type collStep struct {
	op    collOp
	bytes int64
}

// grid lists every (op, size) bin once, in canonical order: the warm-up.
func (s collShape) grid() []collStep {
	var out []collStep
	for _, op := range s.ops {
		for _, b := range s.bins {
			out = append(out, collStep{op, b})
		}
	}
	return out
}

// pass returns pass p of the timed sequence: the whole grid in an order
// seeded by (seed, p). Every bin recurs equally often, so the seed changes
// the order of the ops and never their mix.
func (s collShape) pass(seed uint64, p int) []collStep {
	g := s.grid()
	h := mix(seed, 2, uint64(p))
	for i := len(g) - 1; i > 0; i-- {
		h = splitmix64(h)
		j := int(h % uint64(i+1))
		g[i], g[j] = g[j], g[i]
	}
	return g
}

// blockOp reports whether op moves one block per peer, in which case the
// buffer holds n blocks.
func blockOp(op collOp) bool {
	return op == opAllgather || op == opAlltoall || op == opReduceScatter
}

// count is the op's MPI count argument on n ranks: the whole buffer for
// vector ops, one block (at least one element) for block ops.
func (st collStep) count(n int) int {
	c := int(st.bytes / 4)
	if blockOp(st.op) {
		c /= n
	}
	if c < 1 {
		c = 1
	}
	return c
}

const f32 = mpi.Float32

// doColl issues one collective through the xCCL layer. Every op reads the
// seeded contribution in send; bcast roots copy theirs into recv first,
// since broadcast is in place.
func doColl(x *core.Comm, st collStep, send, recv *device.Buffer) {
	n := x.Size()
	c := st.count(n)
	b := int64(c) * 4
	switch st.op {
	case opAllreduce:
		x.Allreduce(send.Slice(0, b), recv.Slice(0, b), c, f32, mpi.OpSum)
	case opReduce:
		x.Reduce(send.Slice(0, b), recv.Slice(0, b), c, f32, mpi.OpSum, 0)
	case opBcast:
		if x.Rank() == 0 {
			copy(recv.Bytes()[:b], send.Bytes()[:b])
		}
		x.Bcast(recv.Slice(0, b), c, f32, 0)
	case opAllgather:
		x.Allgather(send.Slice(0, b), c, f32, recv.Slice(0, b*int64(n)))
	case opAlltoall:
		x.Alltoall(send.Slice(0, b*int64(n)), c, f32, recv.Slice(0, b*int64(n)))
	case opReduceScatter:
		x.ReduceScatterBlock(send.Slice(0, b*int64(n)), recv.Slice(0, b), c, f32, mpi.OpSum)
	}
}

// checkColl checks rank me's output of one collective against the closed
// form, at seeded positions or (verify) everywhere; pos is scratch for the
// positions.
func checkColl(e *env, salt uint64, me, n int, st collStep, recv *device.Buffer, pos *[]int, coords ...uint64) bool {
	c := st.count(n)
	var outLen int
	var want func(i int) float32
	switch st.op {
	case opAllreduce:
		outLen, want = c, func(i int) float32 { return sumValues(salt, n, i) }
	case opReduce:
		if me != 0 {
			return true // only the root's output is defined
		}
		outLen, want = c, func(i int) float32 { return sumValues(salt, n, i) }
	case opBcast:
		outLen, want = c, func(i int) float32 { return value(salt, 0, i) }
	case opAllgather:
		outLen, want = n*c, func(i int) float32 { return value(salt, i/c, i%c) }
	case opAlltoall:
		outLen, want = n*c, func(i int) float32 { return value(salt, i/c, me*c+i%c) }
	case opReduceScatter:
		outLen, want = c, func(i int) float32 { return sumValues(salt, n, me*c+i) }
	}
	*pos = positions(*pos, e.verify, outLen, e.seed, coords...)
	return checkAt(recv, *pos, want)
}

// runCollectives drives the latency and bandwidth workloads: thetagpu, two
// nodes of eight GPUs, hybrid dispatch. Each timed op is one collective
// followed by a barrier, so ops never overlap.
func runCollectives(e *env, sh collShape) error {
	k := sim.NewKernel()
	sys, err := topology.Preset(k, "thetagpu", 2)
	if err != nil {
		return err
	}
	fab := fabric.New(k, sys)
	n := sys.NumDevices()
	job := mpi.NewJobOnSystem(fab, mpi.MVAPICHProfile(), sys, n)
	opts := core.Options{Backend: core.Auto, Mode: core.Hybrid, Compile: sh.comp, Metrics: e.reg}
	if sh.hier {
		opts.Table = core.HierarchicalTableFor("thetagpu", core.NCCL, true, 0)
	}
	rt, err := core.NewRuntime(job, opts)
	if err != nil {
		return err
	}
	e.stats = rt.Stats
	e.worldBuilt()

	salt := mix(e.seed, 1)
	maxB := sh.bins[len(sh.bins)-1]
	warm := sh.grid()
	var seq []collStep // the timed sequence so far, shared by the ranks
	e.stride = len(warm)
	// warmVirt is rank 0's modeled time over the fixed warm-up sequence.
	// An op's modeled time also depends on the skew its predecessor left
	// between ranks, so only whole fixed sequences compare exactly.
	var warmVirt time.Duration
	var warmErr error
	err = rt.Run(func(x *core.Comm) {
		me, p := x.Rank(), x.MPI().Proc()
		send := x.Device().MustMalloc(maxB)
		recv := x.Device().MustMalloc(maxB)
		fill(send, salt, me, int(maxB/4))
		var pos []int
		// The first CCL-path call creates the communicator; keep that out
		// of the warm-up timings.
		doColl(x, collStep{opAllreduce, maxB}, send, recv)
		x.Barrier()
		for w, st := range warm {
			v0 := p.Now()
			doColl(x, st, send, recv)
			if me == 0 {
				warmVirt += p.Now() - v0
			}
			if !checkColl(e, salt, me, n, st, recv, &pos, 1<<32, uint64(w), uint64(me)) && warmErr == nil {
				warmErr = fmt.Errorf("warm-up %s of %d B: wrong result on rank %d", st.op, st.bytes, me)
			}
			x.Barrier()
		}
		e.begin()
		for i := 0; e.next(i); i++ {
			if i == len(seq) {
				seq = append(seq, sh.pass(e.seed, i/len(warm))...)
			}
			st := seq[i]
			t0 := time.Now()
			doColl(x, st, send, recv)
			if me == 0 {
				e.call(time.Since(t0))
			}
			e.result(i, checkColl(e, salt, me, n, st, recv, &pos, uint64(i), uint64(me)))
			x.Barrier()
		}
	})
	if err != nil {
		return err
	}
	if warmErr != nil {
		return warmErr
	}
	e.virtUS = float64(warmVirt) / float64(len(warm)) / 1e3
	e.virtNote = "mean modeled µs per op over one warm-up call of each (op, size) bin, rank 0"
	return nil
}

// Training workloads: the Horovod loop of dl.Train on thetagpu, one node of
// eight A100s, ResNet-50 at batch 32 with 2 MiB fusion.
const (
	trainBatch  = 32
	trainFusion = 2 << 20
	trainCoord  = 240 * time.Microsecond // Horovod per-op negotiation, dl's default
	trainParts  = 4                      // partitions per persistent bucket, dl's default
)

// a100Rate is dl's modeled ResNet-50 throughput of one A100 in img/s. It
// is a variable so trainCompute truncates at run time exactly as dl's
// computation does; -verify cross-checks the step time against dl.Train.
var a100Rate = 855.0

// trainCompute is the forward+backward time of one step.
var trainCompute = time.Duration(float64(trainBatch) / a100Rate * float64(time.Second))

func runTrain(e *env, persistent bool) error {
	k := sim.NewKernel()
	sys, err := topology.Preset(k, "thetagpu", 1)
	if err != nil {
		return err
	}
	fab := fabric.New(k, sys)
	n := sys.NumDevices()
	job := mpi.NewJobOnSystem(fab, mpi.MVAPICHProfile(), sys, n)
	rt, err := core.NewRuntime(job, core.Options{Backend: core.Auto, Mode: core.Hybrid, Metrics: e.reg})
	if err != nil {
		return err
	}
	e.stats = rt.Stats
	buckets := dl.FuseBuckets(dl.ResNet50().Tensors, trainFusion)
	e.worldBuilt()

	salt := mix(e.seed, 1)
	var stepVirt time.Duration // the first timed step's modeled time; later steps must match
	var runErr error
	err = rt.Run(func(x *core.Comm) {
		t := &trainer{e: e, x: x, buckets: buckets, salt: salt}
		step := t.oneShot
		if persistent {
			if err := t.initPersistent(); err != nil {
				runErr = err
				return
			}
			defer t.free()
			step = t.persistentStep
		} else {
			// Horovod reduces every bucket in place in one fusion buffer.
			var max int64
			for _, b := range buckets {
				if b.Bytes > max {
					max = b.Bytes
				}
			}
			t.grad = x.Device().MustMalloc(max)
		}
		if _, ok := step(-1); !ok && runErr == nil {
			runErr = fmt.Errorf("warm-up step: wrong result on rank %d", x.Rank())
		}
		e.begin()
		for i := 0; e.next(i); i++ {
			virt, ok := step(i)
			if x.Rank() == 0 {
				if i == 0 {
					stepVirt = virt
				}
				ok = ok && virt == stepVirt
			}
			e.result(i, ok)
		}
	})
	if err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	e.virtUS = float64(stepVirt) / 1e3
	e.virtNote = fmt.Sprintf("modeled µs per step, rank 0 (%.0f img/s)", float64(trainBatch*n)/stepVirt.Seconds())
	if e.verify {
		return verifyTrain(persistent, stepVirt)
	}
	return nil
}

// trainer is one rank's training loop state. Step i < 0 is the warm-up.
type trainer struct {
	e       *env
	x       *core.Comm
	buckets []dl.Bucket
	salt    uint64

	grad    *device.Buffer       // one-shot: the fusion buffer
	handles []*core.PersistentOp // persistent: one handle per bucket,
	bufs    []*device.Buffer     // over its own slice of one arena
	slices  int                  // persistent: partitions across all handles
	pos     [][]int              // checked positions per bucket, reused every step
}

// stage writes this rank's seeded gradient values at the checked positions
// of bucket bi for step i. Positions depend only on (seed, step, bucket),
// so every rank writes the same ones and the rest of the bucket stays zero.
func (t *trainer) stage(i, bi int, buf *device.Buffer) []int {
	if t.pos == nil {
		t.pos = make([][]int, len(t.buckets))
	}
	pos := positions(t.pos[bi], t.e.verify, int(t.buckets[bi].Bytes/4), t.e.seed, 3, uint64(i), uint64(bi))
	t.pos[bi] = pos
	for _, j := range pos {
		buf.SetFloat32(j, value(t.salt, t.x.Rank(), j))
	}
	return pos
}

// settle checks the reduced values at pos and zeroes them again.
func (t *trainer) settle(buf *device.Buffer, pos []int) bool {
	n := t.x.Size()
	ok := checkAt(buf, pos, func(j int) float32 { return sumValues(t.salt, n, j) })
	for _, j := range pos {
		buf.SetFloat32(j, 0)
	}
	return ok
}

// oneShot is dl.Train's step: compute, then per bucket the coordination
// delay and an in-place allreduce, then a barrier.
func (t *trainer) oneShot(i int) (time.Duration, bool) {
	x, p := t.x, t.x.MPI().Proc()
	start := p.Now()
	p.Sleep(trainCompute)
	ok := true
	for bi, b := range t.buckets {
		p.Sleep(trainCoord)
		buf := t.grad.Slice(0, b.Bytes)
		pos := t.stage(i, bi, buf)
		t0 := time.Now()
		x.Allreduce(buf, buf, int(b.Bytes/4), f32, mpi.OpSum)
		if i >= 0 && x.Rank() == 0 {
			t.e.call(time.Since(t0))
		}
		ok = t.settle(buf, pos) && ok
	}
	x.Barrier()
	return p.Now() - start, ok
}

// initPersistent builds one partitioned allreduce handle per bucket, each
// at its own offset of one arena, paying the coordination delay once per
// handle as dl's persistent loop does.
func (t *trainer) initPersistent() error {
	x, p := t.x, t.x.MPI().Proc()
	var total int64
	for _, b := range t.buckets {
		total += b.Bytes
	}
	arena := x.Device().MustMalloc(total)
	var off int64
	for _, b := range t.buckets {
		p.Sleep(trainCoord)
		buf := arena.Slice(off, b.Bytes)
		off += b.Bytes
		h, err := x.AllReduceInitPartitioned(buf, buf, int(b.Bytes/4), f32, mpi.OpSum, trainParts)
		if err != nil {
			return fmt.Errorf("persistent init: %w", err)
		}
		t.handles = append(t.handles, h)
		t.bufs = append(t.bufs, buf)
		t.slices += h.Parts()
	}
	return nil
}

func (t *trainer) free() {
	for _, h := range t.handles {
		_ = h.Free() // each handle is freed exactly once
	}
}

// persistentStep is dl's persistent step: Start every handle, mark
// partitions ready as backprop would produce them, Wait in order, barrier.
func (t *trainer) persistentStep(i int) (time.Duration, bool) {
	x, p := t.x, t.x.MPI().Proc()
	timed := i >= 0 && x.Rank() == 0
	start := p.Now()
	for bi := range t.handles {
		t.stage(i, bi, t.bufs[bi])
	}
	ok := true
	for _, h := range t.handles {
		t0 := time.Now()
		ok = h.Start() == nil && ok
		if timed {
			t.e.call(time.Since(t0))
		}
	}
	var done time.Duration
	idx := 0
	for _, h := range t.handles {
		for k := 0; k < h.Parts(); k++ {
			idx++
			target := trainCompute * time.Duration(idx) / time.Duration(t.slices)
			p.Sleep(target - done)
			done = target
			h.Pready(k)
		}
	}
	for bi, h := range t.handles {
		t0 := time.Now()
		ok = h.Wait() == nil && ok
		if timed {
			t.e.call(time.Since(t0))
		}
		ok = t.settle(t.bufs[bi], t.pos[bi]) && ok
	}
	x.Barrier()
	return p.Now() - start, ok
}

// verifyTrain checks the bench's step time against dl.Train for the same
// configuration.
func verifyTrain(persistent bool, stepVirt time.Duration) error {
	rep, err := dl.Train(dl.Config{System: "thetagpu", Nodes: 1, BatchSize: trainBatch, Steps: 1,
		Engine: dl.EngineXCCL, FusionBytes: trainFusion, Persistent: persistent})
	if err != nil {
		return fmt.Errorf("verify: dl.Train: %w", err)
	}
	if rep.StepTime != stepVirt {
		return fmt.Errorf("verify: step time %v, dl.Train says %v", stepVirt, rep.StepTime)
	}
	return nil
}

// Scale workload.

func scaleConfig(seed uint64, shards int) experiments.ScaleConfig {
	return experiments.ScaleConfig{Ranks: 4096, Shards: shards, Seed: seed}
}

// runScale times whole RunScale calls: the model builds its own sharded
// world, so every call is set-up plus run, and there is nothing else to
// build first.
func runScale(e *env) error {
	e.worldBuilt()
	cfg := scaleConfig(e.seed, 2)
	warm, err := experiments.RunScale(cfg)
	if err != nil {
		return err
	}
	if !warm.OK {
		return fmt.Errorf("warm-up RunScale: %d ranks with a wrong digest", warm.BadRanks)
	}
	e.begin()
	for i := 0; e.next(i); i++ {
		t0 := time.Now()
		r, err := experiments.RunScale(cfg)
		e.call(time.Since(t0))
		e.result(i, err == nil && r.OK && r.VirtTime == warm.VirtTime)
	}
	e.virtUS = float64(warm.VirtTime) / 1e3
	e.virtNote = "modeled µs per RunScale allreduce"
	if e.verify {
		serial, err := experiments.RunScale(scaleConfig(e.seed, 1))
		if err != nil {
			return fmt.Errorf("verify: serial RunScale: %w", err)
		}
		if !serial.OK || serial.VirtTime != warm.VirtTime {
			return fmt.Errorf("verify: serial RunScale ok=%v virt=%v, 2-shard virt=%v",
				serial.OK, serial.VirtTime, warm.VirtTime)
		}
	}
	return nil
}
