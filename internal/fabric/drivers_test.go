package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"testing"
	"time"

	"mpixccl/internal/device"
	"mpixccl/internal/metrics"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// windowDegrader degrades every route for transfers that start in
// [from, to).
type windowDegrader struct {
	from, to time.Duration
	lf       LinkFault
}

func (w windowDegrader) DegradedLink(_ string, _, _ int, now time.Duration) (LinkFault, bool) {
	return w.lf, now >= w.from && now < w.to
}

func (w windowDegrader) DegradedNow(now time.Duration) (LinkFault, bool) {
	return w.DegradedLink("", 0, 0, now)
}

// randCorrupter flips one byte of an attempt with probability p, drawing
// from its own seeded stream: two runs agree only if they probe the same
// transfers in the same order.
type randCorrupter struct {
	rng *rand.Rand
	p   float64
}

func (c *randCorrupter) CorruptTransfer(_ string, _, _ int, n int64, _ time.Duration) []int64 {
	if c.rng.Float64() >= c.p {
		return nil
	}
	return []int64{c.rng.Int63n(n)}
}

// driverFaults is one fault setting of TestTransferDriversAgree.
type driverFaults struct {
	name      string
	shows     string // a counter the setting must move in some mix
	degrade   bool
	corrupt   float64 // probability a probe flips a byte; 0 attaches no corrupter
	integrity Integrity
}

var driverSettings = []driverFaults{
	{name: "faithful"},
	{name: "degraded", shows: "xccl_degraded_transfers_total", degrade: true},
	{name: "corrupt-silent", shows: "xccl_corruptions_injected_total", corrupt: 0.5},
	{name: "integrity-recovers", shows: "xccl_transfer_retransmits_total",
		corrupt: 0.3, integrity: Integrity{Enabled: true, MaxRetries: 8}},
	{name: "integrity-exhausts", shows: "xccl_corruptions_unrecovered_total",
		corrupt: 0.9, integrity: Integrity{Enabled: true, MaxRetries: 1}},
}

// driverJob is one transfer of a mix: its endpoints, size, options and
// start time.
type driverJob struct {
	src, dst *device.Buffer
	n        int64
	o        Opts
	at       time.Duration
}

// driverRun is what one run of a mix observed.
type driverRun struct {
	done     []time.Duration // each transfer's completion instant
	dst      [][]byte
	counters map[string]float64 // fault counters by name, summed over link classes
}

// start runs x as kernel callbacks, the way a machine that forwards an
// Xfer's Advance does (mpi's eager send): Open, then sim.Kernel.Start on
// task, which calls then when x is done.
func start(f *Fabric, task *sim.Task, x *Xfer, dst, src device.View, n int64, o Opts, then func()) error {
	if err := f.Open(x, dst, src, n, o); err != nil {
		return err
	}
	f.k.Start(task, x, then)
	return nil
}

// runDriverMix builds a two-node world, starts a seeded mix of concurrent
// transfers, all on processes (TryTransfer) or all as kernel callbacks
// (start), and reports what it observed.
func runDriverMix(t *testing.T, seed int64, fs driverFaults, callbacks bool) driverRun {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	sys := topology.ThetaGPU(k, 2)
	f := New(k, sys)
	reg := metrics.NewRegistry()
	f.SetMetrics(reg)
	switch {
	case fs.degrade:
		f.SetFaults(windowDegrader{from: 1 * time.Microsecond, to: 3 * time.Microsecond,
			lf: LinkFault{BWScale: 0.5, AlphaScale: 2, ChannelCap: 1}})
	case fs.corrupt > 0:
		f.SetFaults(&randCorrupter{rng: rand.New(rand.NewSource(seed)), p: fs.corrupt})
	}
	f.SetIntegrity(fs.integrity)

	rng := rand.New(rand.NewSource(seed))
	// A few endpoints per route class, so concurrent transfers share pools.
	gpus := []*device.Device{sys.Device(0), sys.Device(1), sys.Device(2), sys.Device(8), sys.Device(9)}
	hosts := []*device.Device{sys.Nodes[0].Host, sys.Nodes[1].Host}
	pick := func() (src, dst *device.Device) {
		switch rng.Intn(4) {
		case 0: // local
			d := gpus[rng.Intn(len(gpus))]
			return d, d
		case 1: // intra
			return gpus[rng.Intn(3)], gpus[rng.Intn(3)]
		case 2: // inter
			return gpus[rng.Intn(3)], gpus[3+rng.Intn(2)]
		default: // host
			h := rng.Intn(2)
			g := gpus[3*h+rng.Intn(2)]
			if rng.Intn(2) == 0 {
				return g, hosts[h]
			}
			return hosts[h], g
		}
	}
	jobs := make([]driverJob, 6+rng.Intn(10))
	for i := range jobs {
		src, dst := pick()
		chunk := int64(512 + rng.Intn(4)*512)
		var n int64
		switch rng.Intn(3) {
		case 0:
			n = 0
		case 1:
			n = 1 + rng.Int63n(2048)
		default: // multi-chunk
			n = chunk*int64(2+rng.Intn(6)) + rng.Int63n(chunk)
		}
		j := driverJob{
			src: src.MustMalloc(n + 16), dst: dst.MustMalloc(n + 16), n: n,
			o:  Opts{Channels: 1 + rng.Intn(4), ChunkBytes: chunk},
			at: time.Duration(rng.Intn(8)) * 500 * time.Nanosecond,
		}
		rng.Read(j.src.Bytes())
		jobs[i] = j
	}

	run := driverRun{done: make([]time.Duration, len(jobs)), counters: map[string]float64{}}
	xs := make([]Xfer, len(jobs))
	tasks := make([]sim.Task, len(jobs))
	for i, j := range jobs {
		i, j := i, j
		// A spawn and an After(0) take the same slot, and so do the
		// process's sleep and the After that stands for it.
		if callbacks {
			k.After(0, func() {
				k.After(j.at, func() {
					if err := start(f, &tasks[i], &xs[i], j.dst.Whole(), j.src.Whole(), j.n, j.o, func() { run.done[i] = k.Now() }); err != nil {
						t.Error(err)
					}
				})
			})
			continue
		}
		k.Spawn(fmt.Sprint("xfer", i), func(p *sim.Proc) {
			p.Sleep(j.at)
			if _, err := f.TryTransfer(p, j.dst.Whole(), j.src.Whole(), j.n, j.o); err != nil {
				t.Error(err)
			}
			run.done[i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		run.dst = append(run.dst, bytes.Clone(j.dst.Bytes()))
	}
	for _, name := range []string{
		"xccl_degraded_transfers_total", "xccl_corruptions_injected_total",
		"xccl_corruptions_detected_total", "xccl_transfer_retransmits_total",
		"xccl_corruptions_unrecovered_total",
	} {
		for _, link := range []string{"intra", "inter", "host"} {
			v, _ := reg.CounterValue(name, metrics.Labels{"link": link})
			run.counters[name] += v
		}
	}
	return run
}

// TestTransferDriversAgree holds the two drivers of the transfer state
// machine to one another: seeded mixes of concurrent local, intra-node,
// inter-node and host transfers, zero-byte and multi-chunk, under every
// fault setting, run once on processes and once as kernel callbacks, and
// must finish at the same instants with the same destination bytes and
// the same fault counters.
func TestTransferDriversAgree(t *testing.T) {
	for _, fs := range driverSettings {
		t.Run(fs.name, func(t *testing.T) {
			shown := 0.0
			for seed := int64(1); seed <= 40; seed++ {
				procs := runDriverMix(t, seed, fs, false)
				calls := runDriverMix(t, seed, fs, true)
				for i := range procs.done {
					if procs.done[i] != calls.done[i] {
						t.Fatalf("seed %d transfer %d: done at %v on a process, %v as callbacks",
							seed, i, procs.done[i], calls.done[i])
					}
					if !bytes.Equal(procs.dst[i], calls.dst[i]) {
						t.Fatalf("seed %d transfer %d: destination bytes differ between drivers", seed, i)
					}
				}
				if !maps.Equal(procs.counters, calls.counters) {
					t.Fatalf("seed %d: counters differ:\nprocess:   %v\ncallbacks: %v", seed, procs.counters, calls.counters)
				}
				shown += procs.counters[fs.shows]
			}
			if fs.shows != "" && shown == 0 {
				t.Errorf("no mix moved %s", fs.shows)
			}
		})
	}
}

// cutAll severs every pair of distinct nodes, for good.
type cutAll struct{}

func (cutAll) Severed(a, b int, _ time.Duration) bool               { return a != b }
func (cutAll) RanksSevered(a, b int, _ time.Duration) bool          { return a != b }
func (cutAll) PartitionedNow(time.Duration) bool                    { return true }
func (cutAll) PartitionedUntil(time.Duration) (time.Duration, bool) { return 0, false }
func (cutAll) HasPartitions() bool                                  { return true }

// TestStartFailsAtOpen pins the callback runner's errors: like TryTransfer
// it fails at open, before any time passes, and then never runs.
func TestStartFailsAtOpen(t *testing.T) {
	k, sys, f := setup(2)
	defer k.Close()
	f.SetFaults(cutAll{})
	src := sys.Device(0).MustMalloc(64)
	var x Xfer
	var task sim.Task
	ran := false
	k.After(time.Microsecond, func() {
		if err := start(f, &task, &x, sys.Device(8).MustMalloc(64).Whole(), src.Whole(), 64, Opts{}, func() { ran = true }); !errors.Is(err, ErrPartitioned) {
			t.Errorf("start across a cut = %v, want ErrPartitioned", err)
		}
		if err := start(f, &task, &x, sys.Device(1).MustMalloc(8).Whole(), src.Whole(), 64, Opts{}, func() { ran = true }); err == nil {
			t.Error("start of 64 bytes into an 8-byte view succeeded")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ran || k.Now() != time.Microsecond {
		t.Errorf("a failed start ran its completion (%v) or took time (now %v)", ran, k.Now())
	}
}

// TestFinishedXferPinsNoBuffers runs transfers to done under both runners,
// on a process (sim.Proc.Drive) and as kernel callbacks (start), over a
// local, an intra-node and an inter-node route, and requires each finished
// Xfer to hold neither of its views.
func TestFinishedXferPinsNoBuffers(t *testing.T) {
	k, sys, f := setup(2)
	defer k.Close()
	src := sys.Device(0).MustMalloc(4096)
	dsts := []*device.Device{sys.Device(0), sys.Device(1), sys.Device(8)}
	procs := make([]Xfer, len(dsts))
	calls := make([]Xfer, len(dsts))
	tasks := make([]sim.Task, len(dsts))
	for i, d := range dsts {
		dst := d.MustMalloc(4096)
		k.Spawn(fmt.Sprint("xfer", i), func(p *sim.Proc) {
			if err := f.Open(&procs[i], dst.Whole(), src.Whole(), 4096, Opts{}); err != nil {
				t.Error(err)
				return
			}
			p.Drive(&procs[i])
		})
		if err := start(f, &tasks[i], &calls[i], dst.Whole(), src.Whole(), 4096, Opts{}, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range dsts {
		for runner, x := range map[string]*Xfer{"process": &procs[i], "callbacks": &calls[i]} {
			if x.dst != (device.View{}) || x.src != (device.View{}) {
				t.Errorf("transfer %d (%s): a finished Xfer still holds dst %v or src %v", i, runner, x.dst, x.src)
			}
		}
	}
}
