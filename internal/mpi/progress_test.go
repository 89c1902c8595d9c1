package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

// TestDeadlockDetectedOnOrphanedIsend pins the busy-is-alive rule: a
// rendezvous Isend that is never received and never waited blocks its
// progress process forever, and that process must still count as live, so
// Run reports the deadlock and names the process and its rank — exactly as
// it did when every Isend spawned a process of its own.
func TestDeadlockDetectedOnOrphanedIsend(t *testing.T) {
	j := newTestJob(t, 2)
	err := j.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := c.Device().MustMalloc(64 << 10)
			c.Isend(buf, 8<<10, Float64, 1, 0) // rendezvous size; rank 1 never receives
		}
	})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want *sim.DeadlockError", err)
	}
	if want := []string{"mpi/r0/progress0(event)"}; fmt.Sprint(dl.Blocked) != fmt.Sprint(want) {
		t.Errorf("blocked = %q, want %q", dl.Blocked, want)
	}
}

// TestIdleProgressProcsEndRunAndClose is the idle counterpart: a job that
// completes leaves its progress processes parked between jobs, which must
// not read as a deadlock, and the Kernel.Close that ends Run must unwind
// them.
func TestIdleProgressProcsEndRunAndClose(t *testing.T) {
	before := runtime.NumGoroutine()
	j := newTestJob(t, 4)
	err := j.Run(func(c *Comm) {
		buf := c.Device().MustMalloc(64 << 10)
		c.Barrier()
		c.Wait(c.Iallreduce(buf, buf, 8<<10, Float64, OpSum))
	})
	if err != nil {
		t.Fatalf("Run = %v, want nil with only idle progress processes parked", err)
	}
	for r, pool := range j.progress {
		if all, idle := pool.Workers(); idle == 0 || idle != all {
			t.Fatalf("rank %d: %d of %d progress processes idle after the run, want all of at least one", r, idle, all)
		}
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines after Run, %d before the world was built", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

const (
	progressRanks = 16 // two 8-GPU nodes
	blockCount    = 512
	largeCount    = 1 << 15 // 256 KiB of Float64: ring allreduce
	waitallEager  = 128     // 1 KiB
	waitallRndv   = 4 << 10 // 32 KiB, over the 16 KiB eager threshold
	progressBuf   = int64(progressRanks) * waitallRndv * 8
)

// progressBufs is one rank's working set for progressOps.
type progressBufs struct {
	a, b       *device.Buffer
	sc, rc, ds []int // Alltoallv counts and displacements
}

func newProgressBufs(c *Comm) *progressBufs {
	n, r := c.Size(), c.Rank()
	b := &progressBufs{a: c.Device().MustMalloc(progressBuf), b: c.Device().MustMalloc(progressBuf)}
	b.a.FillFloat64(float64(r + 1))
	// Alltoallv: rank a sends 64·(1+(a+b)%4) elements to rank b, a count
	// symmetric in (a, b), so what r sends to q is what q sends to r.
	for q := 0; q < n; q++ {
		cnt := 64 * (1 + (r+q)%4)
		b.sc, b.rc, b.ds = append(b.sc, cnt), append(b.rc, cnt), append(b.ds, q*blockCount)
	}
	return b
}

// waitall posts one request per peer — an Isend to every higher rank and an
// Irecv from every lower one, eager or rendezvous by the pair's parity —
// and completes them with one Waitall.
func (b *progressBufs) waitall(c *Comm) {
	var reqs []*Request
	for q := 0; q < c.Size(); q++ {
		if q == c.Rank() {
			continue
		}
		cnt := waitallEager
		if (q+c.Rank())%2 == 1 {
			cnt = waitallRndv
		}
		if q > c.Rank() {
			reqs = append(reqs, c.Isend(b.a, cnt, Float64, q, 5))
		} else {
			reqs = append(reqs, c.Irecv(b.b.Slice(int64(q)*waitallRndv*8, int64(cnt)*8), cnt, Float64, q, 5))
		}
	}
	c.Waitall(reqs)
}

// progressOps are the MPI calls whose steps run on progress processes.
var progressOps = []struct {
	name string
	run  func(c *Comm, b *progressBufs)
}{
	{"barrier", func(c *Comm, b *progressBufs) { c.Barrier() }},
	{"allreduce-8B", func(c *Comm, b *progressBufs) { c.Allreduce(b.a, b.b, 1, Float64, OpSum) }},
	{"allreduce-256KiB", func(c *Comm, b *progressBufs) { c.Allreduce(b.a, b.b, largeCount, Float64, OpSum) }},
	{"allgather", func(c *Comm, b *progressBufs) { c.Allgather(b.a, blockCount, Float64, b.b) }},
	{"alltoall", func(c *Comm, b *progressBufs) { c.Alltoall(b.a, blockCount, Float64, b.b) }},
	{"gather", func(c *Comm, b *progressBufs) { c.Gather(b.a, blockCount, Float64, b.b, 0) }},
	{"scatter", func(c *Comm, b *progressBufs) { c.Scatter(b.a, blockCount, Float64, b.b, 0) }},
	{"alltoallv", func(c *Comm, b *progressBufs) { c.Alltoallv(b.a, b.sc, b.ds, Float64, b.b, b.rc, b.ds) }},
	{"iallreduce", func(c *Comm, b *progressBufs) {
		small := c.Iallreduce(b.a, b.b, 1, Float64, OpSum)
		large := c.Iallreduce(b.a.Slice(8, largeCount*8), b.b.Slice(8, largeCount*8), largeCount, Float64, OpSum)
		c.Wait(large)
		c.Wait(small)
	}},
	{"ring-exchange", func(c *Comm, b *progressBufs) {
		n, r := c.Size(), c.Rank()
		recv := c.Irecv(b.b, blockCount, Float64, (r+n-1)%n, 9)
		send := c.Isend(b.a, blockCount, Float64, (r+1)%n, 9)
		c.Wait(send)
		c.Wait(recv)
	}},
	{"waitall", func(c *Comm, b *progressBufs) { b.waitall(c) }},
}

// TestMPISteadyStateSpawnsNoProcs pins the resident progress pool: after a
// warm-up wave has grown each rank's pool to the concurrency its calls
// need, no collective, nonblocking collective, point-to-point exchange or
// Waitall fan-out spawns a process. Spawns are counted as the pid distance
// between sentinel processes spawned after every call. Spawning a process
// per Isend instead would read ⌈log2 n⌉ per rank for a barrier alone.
func TestMPISteadyStateSpawnsNoProcs(t *testing.T) {
	const waves = 3 // the first is warm-up
	j := newTestJob(t, progressRanks)
	k := j.Fabric().Kernel()
	bar := sim.NewBarrier(k, progressRanks)
	var pids []int
	var labels []string
	mark := func(c *Comm, label string) {
		bar.Wait(c.Proc())
		if c.Rank() == 0 {
			pids = append(pids, k.Spawn("sentinel", func(*sim.Proc) {}).ID())
			labels = append(labels, label)
		}
		bar.Wait(c.Proc())
	}
	err := j.Run(func(c *Comm) {
		b := newProgressBufs(c)
		mark(c, "start")
		for w := 0; w < waves; w++ {
			for _, op := range progressOps {
				op.run(c, b)
				mark(c, fmt.Sprintf("wave %d %s", w, op.name))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := len(progressOps) + 1; i < len(pids); i++ {
		if spawned := pids[i] - pids[i-1] - 1; spawned != 0 {
			t.Errorf("%s spawned %d processes; want 0", labels[i], spawned)
		}
	}
}

// TestProgressReuseVirtualTime pins the modeled completion times of rank 0
// and rank n−1 after each of three back-to-back calls of every progressOp,
// in one run. The values were captured when every Isend, Irecv and
// nonblocking collective spawned a process of its own; the second and third
// calls run on reused progress processes, which is where reuse could drift.
func TestProgressReuseVirtualTime(t *testing.T) {
	const ns = time.Nanosecond
	want := map[string][6]time.Duration{
		"barrier":          {11000 * ns, 23400 * ns, 35800 * ns, 12400 * ns, 24800 * ns, 37200 * ns},
		"allreduce-8B":     {47500 * ns, 57800 * ns, 68100 * ns, 47500 * ns, 57800 * ns, 68100 * ns},
		"allreduce-256KiB": {210305 * ns, 352510 * ns, 494715 * ns, 210305 * ns, 352510 * ns, 494715 * ns},
		"allgather":        {520586 * ns, 546457 * ns, 572328 * ns, 513386 * ns, 539257 * ns, 565128 * ns},
		"alltoall":         {609104 * ns, 653180 * ns, 697256 * ns, 616304 * ns, 660380 * ns, 704456 * ns},
		"gather":           {708606 * ns, 712756 * ns, 716906 * ns, 708606 * ns, 712756 * ns, 716906 * ns},
		"scatter":          {721958 * ns, 727010 * ns, 732062 * ns, 721958 * ns, 727010 * ns, 732062 * ns},
		"alltoallv":        {737387 * ns, 741703 * ns, 749665 * ns, 737665 * ns, 743835 * ns, 749947 * ns},
		"iallreduce":       {892152 * ns, 1034357 * ns, 1176562 * ns, 892152 * ns, 1034357 * ns, 1176562 * ns},
		"ring-exchange":    {1179912 * ns, 1183262 * ns, 1186612 * ns, 1179912 * ns, 1183262 * ns, 1186612 * ns},
		"waitall":          {1217933 * ns, 1244701 * ns, 1279245 * ns, 1217933 * ns, 1250445 * ns, 1289693 * ns},
	}
	j := newTestJob(t, progressRanks)
	got := map[string]*[6]time.Duration{}
	for _, op := range progressOps {
		got[op.name] = new([6]time.Duration)
	}
	err := j.Run(func(c *Comm) {
		b := newProgressBufs(c)
		for _, op := range progressOps {
			for i := 0; i < 3; i++ {
				op.run(c, b)
				switch c.Rank() {
				case 0:
					got[op.name][i] = c.Proc().Now()
				case c.Size() - 1:
					got[op.name][3+i] = c.Proc().Now()
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range progressOps {
		if *got[op.name] != want[op.name] {
			t.Errorf("%s: rank 0, rank %d completions = %v, want %v", op.name, progressRanks-1, *got[op.name], want[op.name])
		}
	}
}

func TestNonblockingCollectivesOverlap(t *testing.T) {
	const n = 4
	j := newTestJob(t, n)
	err := j.Run(func(c *Comm) {
		a := c.Device().MustMalloc(1 << 20)
		b := c.Device().MustMalloc(1 << 20)
		a.FillFloat32(1)
		r1 := c.Iallreduce(a, b, 1<<18, Float32, OpSum)
		bc := c.Device().MustMalloc(4096)
		if c.Rank() == 2 {
			bc.FillFloat32(7)
		}
		r2 := c.Ibcast(bc, 1024, Float32, 2)
		r3 := c.Icoll(func(ac *Comm) { ac.Barrier() })
		c.Wait(r1)
		c.Wait(r2)
		c.Wait(r3)
		if b.Float32(5) != float32(n) {
			t.Errorf("iallreduce = %v", b.Float32(5))
		}
		if bc.Float32(5) != 7 {
			t.Errorf("ibcast = %v", bc.Float32(5))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Two nonblocking collectives of the same type issued back to back must
// match by issue order on every rank even if execution interleaves.
func TestNonblockingSameTypeOrdering(t *testing.T) {
	const n = 4
	j := newTestJob(t, n)
	err := j.Run(func(c *Comm) {
		x := c.Device().MustMalloc(8)
		y := c.Device().MustMalloc(8)
		outX := c.Device().MustMalloc(8)
		outY := c.Device().MustMalloc(8)
		x.SetFloat64(0, 1)
		y.SetFloat64(0, 100)
		// Issue in the same order everywhere; stagger ranks so execution
		// interleaves differently per rank.
		c.Proc().Sleep(time.Duration(c.Rank()) * 7 * time.Microsecond)
		r1 := c.Iallreduce(x, outX, 1, Float64, OpSum)
		r2 := c.Iallreduce(y, outY, 1, Float64, OpSum)
		c.Wait(r2)
		c.Wait(r1)
		if outX.Float64(0) != float64(n) || outY.Float64(0) != float64(100*n) {
			t.Errorf("rank %d got %v/%v, want %d/%d", c.Rank(), outX.Float64(0), outY.Float64(0), n, 100*n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIreduceAndIgatherStyleOps(t *testing.T) {
	const n = 4
	j := newTestJob(t, n)
	err := j.Run(func(c *Comm) {
		send := c.Device().MustMalloc(64)
		recv := c.Device().MustMalloc(64)
		all := c.Device().MustMalloc(64 * n)
		send.FillFloat32(float32(c.Rank() + 1))
		r1 := c.Icoll(func(ac *Comm) { ac.Reduce(send, recv, 16, Float32, OpSum, 0) })
		r2 := c.Iallgather(send, 16, Float32, all)
		a2a := c.Device().MustMalloc(64 * n)
		r3 := c.Ialltoall(all, 16, Float32, a2a)
		c.Wait(r1)
		c.Wait(r2)
		c.Wait(r3)
		if c.Rank() == 0 && recv.Float32(3) != 10 {
			t.Errorf("ireduce = %v", recv.Float32(3))
		}
		if all.Float32(16*2+3) != 3 {
			t.Errorf("iallgather = %v", all.Float32(16*2+3))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
