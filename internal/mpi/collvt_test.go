package mpi

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
)

// The collective golden pins every MPI collective algorithm's modeled
// completion times, result bytes and resume order. A change to how the
// collectives run must leave it byte-identical; a change to what they model
// regenerates it with:
//
//	go test ./internal/mpi -run TestCollectiveVirtualTime -update-golden
var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/collectives.golden from the current collectives")

const collGolden = "testdata/collectives.golden"

// Element counts (float64) on either side of the MVAPICH and Open MPI + UCX
// switchovers and eager thresholds.
const (
	cvSmall   = 3     // a few elements: fewer than the ranks, so recursive doubling
	cvBlock   = 300   // 2400 B per rank: short algorithms, eager segments
	cvLong    = 5000  // 40 000 B: past ReduceLong and AllreduceLong
	cvRndv    = 2100  // 16 800 B per block: pairwise alltoall, rendezvous segments
	cvGather  = 8200  // 65 600 B per rank: past AllgatherLong and BcastLong
	cvBcastXL = 40000 // 320 000 B: scatter-ring Bcast with rendezvous segments
	cvInLen   = cvBcastXL
	cvOutLen  = 16 * cvGather
)

// collVTBufs is one rank's working set: in holds the rank's pattern and is
// only read; out receives every result.
type collVTBufs struct {
	in, out    *device.Buffer
	sc, rc, ds []int // Alltoallv counts and displacements
}

// collVTOp is one collective call of TestCollectiveVirtualTime. run issues
// it on c and returns how many bytes of out hold its result.
type collVTOp struct {
	name string
	run  func(c *Comm, b *collVTBufs) int64
}

// bcastOp broadcasts count elements of root's pattern.
func bcastOp(name string, count, root int) collVTOp {
	return collVTOp{name, func(c *Comm, b *collVTBufs) int64 {
		if c.Rank() == root {
			copy(b.out.Bytes(), b.in.Bytes()[:count*8])
		}
		c.Bcast(b.out, count, Float64, root)
		return int64(count) * 8
	}}
}

// allreduceOp sums count elements into out.
func allreduceOp(name string, count int) collVTOp {
	return collVTOp{name, func(c *Comm, b *collVTBufs) int64 {
		c.Allreduce(b.in, b.out, count, Float64, OpSum)
		return int64(count) * 8
	}}
}

// reduceOp reduces count elements to root with op.
func reduceOp(name string, count, root int, op Op) collVTOp {
	return collVTOp{name, func(c *Comm, b *collVTBufs) int64 {
		c.Reduce(b.in, b.out, count, Float64, op, root)
		return int64(count) * 8
	}}
}

// allgatherOp gathers count elements from every rank.
func allgatherOp(name string, count int) collVTOp {
	return collVTOp{name, func(c *Comm, b *collVTBufs) int64 {
		c.Allgather(b.in, count, Float64, b.out)
		return int64(count) * 8 * int64(c.Size())
	}}
}

// alltoallOp exchanges count-element blocks.
func alltoallOp(name string, count int) collVTOp {
	return collVTOp{name, func(c *Comm, b *collVTBufs) int64 {
		c.Alltoall(b.in, count, Float64, b.out)
		return int64(count) * 8 * int64(c.Size())
	}}
}

// collVTOps covers every algorithm branch of every MPI collective, short
// and long, and the nonblocking forms on progress workers.
var collVTOps = []collVTOp{
	{"barrier", func(c *Comm, b *collVTBufs) int64 { c.Barrier(); return 0 }},
	bcastOp("bcast-binomial", cvBlock, 3),
	bcastOp("bcast-scatter-ring", cvGather, 5),
	bcastOp("bcast-scatter-ring-rndv", cvBcastXL, 0),
	reduceOp("reduce-binomial", cvBlock, 2, OpSum),
	reduceOp("reduce-binomial-max", cvSmall, 0, OpMax),
	reduceOp("reduce-scatter-gather", cvLong, 1, OpSum),
	reduceOp("reduce-scatter-gather-rndv", 16*cvRndv, 4, OpSum),
	allreduceOp("allreduce-8B", 1),
	allreduceOp("allreduce-recdoubling-few", cvSmall),
	allreduceOp("allreduce-recdoubling", cvBlock),
	allreduceOp("allreduce-ring", cvLong),
	allreduceOp("allreduce-ring-rndv", 16*cvRndv),
	{"allreduce-in-place", func(c *Comm, b *collVTBufs) int64 {
		copy(b.out.Bytes(), b.in.Bytes()[:cvBlock*8])
		c.Allreduce(b.out, b.out, cvBlock, Float64, OpSum)
		return cvBlock * 8
	}},
	allgatherOp("allgather-bruck", cvBlock),
	allgatherOp("allgather-ring", cvGather),
	alltoallOp("alltoall-bruck", cvBlock/2),
	alltoallOp("alltoall-pairwise", cvRndv),
	{"gather", func(c *Comm, b *collVTBufs) int64 {
		c.Gather(b.in, cvBlock, Float64, b.out, 2)
		return cvBlock * 8 * int64(c.Size())
	}},
	{"gather-rndv", func(c *Comm, b *collVTBufs) int64 {
		c.Gather(b.in, cvRndv, Float64, b.out, 0)
		return cvRndv * 8 * int64(c.Size())
	}},
	{"scatter", func(c *Comm, b *collVTBufs) int64 {
		c.Scatter(b.in, cvBlock, Float64, b.out, 1)
		return cvBlock * 8
	}},
	{"scatter-rndv", func(c *Comm, b *collVTBufs) int64 {
		c.Scatter(b.in, cvRndv, Float64, b.out, 0)
		return cvRndv * 8
	}},
	{"alltoallv", func(c *Comm, b *collVTBufs) int64 {
		c.Alltoallv(b.in, b.sc, b.ds, Float64, b.out, b.rc, b.ds)
		return int64(c.Size()) * cvRndv * 8
	}},
	{"reduce-scatter-block", func(c *Comm, b *collVTBufs) int64 {
		c.ReduceScatterBlock(b.in, b.out, cvBlock, Float64, OpSum)
		return cvBlock * 8
	}},
	{"reduce-scatter-block-8K", func(c *Comm, b *collVTBufs) int64 {
		c.ReduceScatterBlock(b.in, b.out, 1100, Float64, OpSum)
		return 1100 * 8
	}},
	{"iallreduce", func(c *Comm, b *collVTBufs) int64 {
		small := c.Iallreduce(b.in, b.out, 1, Float64, OpSum)
		large := c.Iallreduce(b.in.Slice(8, cvLong*8), b.out.Slice(8, cvLong*8), cvLong, Float64, OpSum)
		c.Wait(large)
		c.Wait(small)
		return (cvLong + 1) * 8
	}},
	{"ibcast", func(c *Comm, b *collVTBufs) int64 {
		if c.Rank() == 1 {
			copy(b.out.Bytes(), b.in.Bytes()[:cvBlock*8])
		}
		c.Wait(c.Ibcast(b.out, cvBlock, Float64, 1))
		return cvBlock * 8
	}},
	{"iallgather", func(c *Comm, b *collVTBufs) int64 {
		c.Wait(c.Iallgather(b.in, cvBlock, Float64, b.out))
		return cvBlock * 8 * int64(c.Size())
	}},
	{"ialltoall", func(c *Comm, b *collVTBufs) int64 {
		c.Wait(c.Ialltoall(b.in, cvRndv, Float64, b.out))
		return cvRndv * 8 * int64(c.Size())
	}},
}

// collVTWorlds are the jobs TestCollectiveVirtualTime runs every op in: 16
// ranks on two thetagpu nodes under both runtime flavors (Open MPI + UCX
// pays a staging penalty) and with integrity retransmits, and 6 and 12
// ranks, whose recursive doubling folds and whose ring and Bruck schedules
// are not powers of two.
var collVTWorlds = []struct {
	name string
	job  func(t *testing.T) *Job
}{
	{"mvapich-16", func(t *testing.T) *Job { return newTestJob(t, 16) }},
	{"openmpi-ucx-16", func(t *testing.T) *Job { return newSystemJob(t, "thetagpu", 16, OpenMPIUCXProfile()) }},
	{"integrity-16", func(t *testing.T) *Job {
		j := newTestJob(t, 16)
		j.Fabric().SetIntegrity(fabric.Integrity{Enabled: true, MaxRetries: 2})
		j.Fabric().SetFaults(&flipCorrupter{seen: map[int64]int{}})
		return j
	}},
	{"mvapich-6", func(t *testing.T) *Job { return newTestJob(t, 6) }},
	{"openmpi-ucx-12", func(t *testing.T) *Job { return newSystemJob(t, "thetagpu", 12, OpenMPIUCXProfile()) }},
}

// TestCollectiveVirtualTime runs two back-to-back calls of every collVTOp
// in each world, the ranks lined up by a sim barrier before each op, and
// pins, per op: every rank's completion time of each call (ns after the
// op's start), an FNV-64a hash of the order in which the ranks returned
// from the calls, and one of every rank's result bytes, in rank order.
func TestCollectiveVirtualTime(t *testing.T) {
	var got bytes.Buffer
	for _, w := range collVTWorlds {
		j := w.job(t)
		n := j.Size()
		bar := sim.NewBarrier(j.Fabric().Kernel(), n)
		type opLog struct {
			times [2][]int64
			order []byte
			out   [][]byte
		}
		logs := make([]opLog, len(collVTOps))
		for i := range logs {
			logs[i].times = [2][]int64{make([]int64, n), make([]int64, n)}
			logs[i].out = make([][]byte, n)
		}
		err := j.Run(func(c *Comm) {
			r := c.Rank()
			b := &collVTBufs{in: c.Device().MustMalloc(cvInLen * 8), out: c.Device().MustMalloc(cvOutLen * 8)}
			fillRank(b.in, r+1, cvInLen)
			// Alltoallv: rank a sends 64·(1+(a+b)%4) elements to rank b, a
			// count symmetric in (a, b).
			for q := 0; q < n; q++ {
				cnt := 64 * (1 + (r+q)%4)
				b.sc, b.rc, b.ds = append(b.sc, cnt), append(b.rc, cnt), append(b.ds, q*cvRndv)
			}
			for i, op := range collVTOps {
				bar.Wait(c.Proc())
				start := c.Proc().Now()
				l := &logs[i]
				for call := 0; call < 2; call++ {
					ln := op.run(c, b)
					l.times[call][r] = int64(c.Proc().Now() - start)
					l.order = append(l.order, byte(r))
					if call == 1 {
						l.out[r] = append([]byte(nil), b.out.Bytes()[:ln]...)
					}
				}
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for i, op := range collVTOps {
			l := &logs[i]
			order, out := fnv.New64a(), fnv.New64a()
			order.Write(l.order)
			for _, o := range l.out {
				out.Write(o)
			}
			fmt.Fprintf(&got, "%s %s order=%016x bytes=%016x\n", w.name, op.name, order.Sum64(), out.Sum64())
			for call, ts := range l.times {
				s := make([]string, len(ts))
				for r, v := range ts {
					s[r] = fmt.Sprint(v)
				}
				fmt.Fprintf(&got, "  call%d %s\n", call+1, strings.Join(s, " "))
			}
		}
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(collGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(collGolden)
	if err != nil {
		t.Fatalf("golden missing (run with -update-golden to create): %v", err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			op := i
			for op > 0 && strings.HasPrefix(wl[min(op, len(wl)-1)], " ") {
				op--
			}
			t.Fatalf("collectives differ from %s at line %d (%s):\n got: %s\nwant: %s", collGolden, i+1, wl[min(op, len(wl)-1)], g, w)
		}
	}
}
