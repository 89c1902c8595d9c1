package mpi

import (
	"testing"
	"time"

	"mpixccl/internal/elem"
	"mpixccl/internal/sim"
)

// rankSizes covers power-of-two, non-power-of-two, and prime communicator
// sizes, exercising the fold/unfold and uneven-segment paths.
var rankSizes = []int{2, 3, 4, 5, 7, 8, 16}

// countSizes straddle every algorithm switchover in MVAPICHProfile.
var countSizes = []int{1, 3, 64, 4096, 100000}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range rankSizes {
		j := newTestJob(t, n)
		var maxArrive sim.Time
		releases := make([]sim.Time, n)
		err := j.Run(func(c *Comm) {
			d := time.Duration(c.Rank()) * 10 * time.Microsecond
			c.Proc().Sleep(d)
			if c.Proc().Now() > maxArrive {
				maxArrive = c.Proc().Now()
			}
			c.Barrier()
			releases[c.Rank()] = c.Proc().Now()
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for r, rel := range releases {
			if rel < maxArrive {
				t.Fatalf("n=%d: rank %d released at %v before last arrival %v", n, r, rel, maxArrive)
			}
		}
	}
}

func TestBcastAllSizes(t *testing.T) {
	for _, n := range rankSizes {
		for _, count := range countSizes {
			for _, root := range []int{0, n - 1} {
				j := newTestJob(t, n)
				err := j.Run(func(c *Comm) {
					buf := c.Device().MustMalloc(int64(count) * 8)
					if c.Rank() == root {
						fillRank(buf, 42, count)
					}
					c.Bcast(buf, count, Float64, root)
					for i := 0; i < count; i += 1 + count/7 {
						if buf.Float64(i) != float64(42*1000+i) {
							t.Fatalf("n=%d count=%d root=%d rank=%d elem %d = %v",
								n, count, root, c.Rank(), i, buf.Float64(i))
						}
					}
				})
				if err != nil {
					t.Fatalf("n=%d count=%d root=%d: %v", n, count, root, err)
				}
			}
		}
	}
}

// TestBcastScatterRingVirtualTime pins the modeled completion times of
// rank 0 and rank n−1 after each of two back-to-back large broadcasts
// (scatter + ring allgather, above BcastLong) on two-node communicators,
// from root 0 and from a root that leads no node. Uneven segment sizes
// (count not a multiple of n) are in the 12-rank rows.
func TestBcastScatterRingVirtualTime(t *testing.T) {
	const ns = time.Nanosecond
	const count = 100003 // float64s: ~781 KiB
	cases := []struct {
		n, root int
		want    [4]time.Duration
	}{
		{16, 0, [4]time.Duration{240891 * ns, 481782 * ns, 240891 * ns, 481782 * ns}},
		{16, 5, [4]time.Duration{260219 * ns, 510828 * ns, 260219 * ns, 510828 * ns}},
		{12, 0, [4]time.Duration{207816 * ns, 415632 * ns, 207816 * ns, 415632 * ns}},
		{12, 9, [4]time.Duration{232752 * ns, 453690 * ns, 232752 * ns, 453690 * ns}},
	}
	for _, tc := range cases {
		j := newTestJob(t, tc.n)
		var got [4]time.Duration
		err := j.Run(func(c *Comm) {
			buf := c.Device().MustMalloc(count * 8)
			if c.Rank() == tc.root {
				fillRank(buf, 7, count)
			}
			for i := 0; i < 2; i++ {
				c.Bcast(buf, count, Float64, tc.root)
				switch c.Rank() {
				case 0:
					got[i] = c.Proc().Now()
				case tc.n - 1:
					got[2+i] = c.Proc().Now()
				}
			}
			if buf.Float64(count-1) != float64(7*1000+count-1) {
				t.Errorf("n=%d root=%d rank=%d: last elem %v", tc.n, tc.root, c.Rank(), buf.Float64(count-1))
			}
		})
		if err != nil {
			t.Fatalf("n=%d root=%d: %v", tc.n, tc.root, err)
		}
		if got != tc.want {
			t.Errorf("n=%d root=%d: rank 0, rank %d completions = %v, want %v", tc.n, tc.root, tc.n-1, got, tc.want)
		}
	}
}

func TestReduceAllSizes(t *testing.T) {
	for _, n := range rankSizes {
		for _, count := range countSizes {
			root := n / 2
			j := newTestJob(t, n)
			err := j.Run(func(c *Comm) {
				send := c.Device().MustMalloc(int64(count) * 8)
				recv := c.Device().MustMalloc(int64(count) * 8)
				for i := 0; i < count; i++ {
					send.SetFloat64(i, float64(c.Rank()+1)*float64(i+1))
				}
				c.Reduce(send, recv, count, Float64, OpSum, root)
				if c.Rank() == root {
					sumRanks := float64(n*(n+1)) / 2
					for i := 0; i < count; i += 1 + count/7 {
						want := sumRanks * float64(i+1)
						if recv.Float64(i) != want {
							t.Fatalf("n=%d count=%d elem %d = %v, want %v", n, count, i, recv.Float64(i), want)
						}
					}
				}
			})
			if err != nil {
				t.Fatalf("n=%d count=%d: %v", n, count, err)
			}
		}
	}
}

// TestAllreduceAllSizes checks every element of float64 and int32 sums,
// which are exact for these integer payloads, on every rankSizes ThetaGPU
// communicator plus two that fill their last node partly: 12 ThetaGPU
// ranks (8+4) and 5 MRI ranks (2+2+1). Counts sit on both sides of
// AllreduceLong (recursive doubling up to it, the ring above it) and, with
// AllreduceLong lowered to zero so the element count alone decides, on
// both sides of the count < n switch back to recursive doubling. Float64
// also runs one large ring of uneven segments.
func TestAllreduceAllSizes(t *testing.T) {
	type shape struct {
		system string
		n      int
	}
	type run struct {
		prof  Profile
		count int
	}
	var shapes []shape
	for _, n := range rankSizes {
		shapes = append(shapes, shape{"thetagpu", n})
	}
	shapes = append(shapes, shape{"thetagpu", 12}, shape{"mri", 5})
	prof := MVAPICHProfile()
	ringAll := prof
	ringAll.AllreduceLong = 0
	for _, sh := range shapes {
		n := sh.n
		for _, dt := range []Datatype{Float64, Int32} {
			long := int(prof.AllreduceLong) / dt.Size()
			runs := []run{
				{prof, 1}, {prof, 3}, {prof, 64}, {prof, long}, {prof, long + 1},
				{ringAll, n - 1}, {ringAll, n}, {ringAll, n + 1},
			}
			if dt == Float64 {
				runs = append(runs, run{prof, 100000})
			}
			for _, tc := range runs {
				count := tc.count
				j := newSystemJob(t, sh.system, n, tc.prof)
				err := j.Run(func(c *Comm) {
					kind := dt.Kind()
					bytes := int64(count) * int64(kind.Size())
					send := c.Device().MustMalloc(bytes)
					recv := c.Device().MustMalloc(bytes)
					for i := 0; i < count; i++ {
						elem.Set(kind, send.Bytes(), i, float64((c.Rank()+1)*(i+1)), 0)
					}
					c.Allreduce(send, recv, count, dt, OpSum)
					sumRanks := n * (n + 1) / 2
					for i := 0; i < count; i++ {
						if got, _ := elem.Get(kind, recv.Bytes(), i); got != float64(sumRanks*(i+1)) {
							t.Fatalf("%s n=%d %v count=%d long=%d rank=%d elem %d = %v, want %d",
								sh.system, n, dt, count, tc.prof.AllreduceLong, c.Rank(), i, got, sumRanks*(i+1))
						}
					}
				})
				if err != nil {
					t.Fatalf("%s n=%d %v count=%d long=%d: %v", sh.system, n, dt, count, tc.prof.AllreduceLong, err)
				}
			}
		}
	}
}

func TestAllreduceMaxOp(t *testing.T) {
	j := newTestJob(t, 5)
	err := j.Run(func(c *Comm) {
		send := c.Device().MustMalloc(16)
		recv := c.Device().MustMalloc(16)
		send.SetFloat64(0, float64(c.Rank()))
		send.SetFloat64(1, -float64(c.Rank()))
		c.Allreduce(send, recv, 2, Float64, OpMax)
		if recv.Float64(0) != 4 || recv.Float64(1) != 0 {
			t.Errorf("max = %v/%v", recv.Float64(0), recv.Float64(1))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceDoubleComplex(t *testing.T) {
	// The datatype no CCL supports must work through plain MPI.
	j := newTestJob(t, 4)
	err := j.Run(func(c *Comm) {
		send := c.Device().MustMalloc(32) // 2 complex elements
		recv := c.Device().MustMalloc(32)
		send.SetFloat64(0, float64(c.Rank()))
		send.SetFloat64(1, 1)
		send.SetFloat64(2, 2)
		send.SetFloat64(3, float64(c.Rank()))
		c.Allreduce(send, recv, 2, DoubleComplex, OpSum)
		if recv.Float64(0) != 6 || recv.Float64(1) != 4 || recv.Float64(2) != 8 || recv.Float64(3) != 6 {
			t.Errorf("complex allreduce = %v %v %v %v",
				recv.Float64(0), recv.Float64(1), recv.Float64(2), recv.Float64(3))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgatherAllSizes(t *testing.T) {
	for _, n := range rankSizes {
		for _, count := range []int{1, 17, 4096, 20000} {
			j := newTestJob(t, n)
			err := j.Run(func(c *Comm) {
				send := c.Device().MustMalloc(int64(count) * 8)
				recv := c.Device().MustMalloc(int64(n*count) * 8)
				fillRank(send, c.Rank(), count)
				c.Allgather(send, count, Float64, recv)
				for r := 0; r < n; r++ {
					for i := 0; i < count; i += 1 + count/5 {
						got := recv.Float64(r*count + i)
						if got != float64(r*1000+i) {
							t.Fatalf("n=%d count=%d rank=%d block %d elem %d = %v",
								n, count, c.Rank(), r, i, got)
						}
					}
				}
			})
			if err != nil {
				t.Fatalf("n=%d count=%d: %v", n, count, err)
			}
		}
	}
}

func TestAlltoallAllSizes(t *testing.T) {
	for _, n := range rankSizes {
		for _, count := range []int{1, 16, 3000} {
			j := newTestJob(t, n)
			err := j.Run(func(c *Comm) {
				send := c.Device().MustMalloc(int64(n*count) * 8)
				recv := c.Device().MustMalloc(int64(n*count) * 8)
				for r := 0; r < n; r++ {
					for i := 0; i < count; i++ {
						// Block destined to rank r encodes (sender, dest, i).
						send.SetFloat64(r*count+i, float64(c.Rank()*1e6+r*1e3+i))
					}
				}
				c.Alltoall(send, count, Float64, recv)
				for r := 0; r < n; r++ {
					for i := 0; i < count; i += 1 + count/5 {
						got := recv.Float64(r*count + i)
						want := float64(r*1e6 + c.Rank()*1e3 + i)
						if got != want {
							t.Fatalf("n=%d count=%d rank=%d from %d elem %d = %v, want %v",
								n, count, c.Rank(), r, i, got, want)
						}
					}
				}
			})
			if err != nil {
				t.Fatalf("n=%d count=%d: %v", n, count, err)
			}
		}
	}
}

func TestAlltoallvListing1Shape(t *testing.T) {
	// The exact operation of the paper's Listing 1: variable counts and
	// displacements per peer.
	const n = 4
	j := newTestJob(t, n)
	err := j.Run(func(c *Comm) {
		sendCounts := make([]int, n)
		sdispls := make([]int, n)
		recvCounts := make([]int, n)
		rdispls := make([]int, n)
		sTotal := 0
		for r := 0; r < n; r++ {
			sendCounts[r] = c.Rank() + r + 1 // what I send to r
			sdispls[r] = sTotal
			sTotal += sendCounts[r]
		}
		rTotal := 0
		for r := 0; r < n; r++ {
			recvCounts[r] = r + c.Rank() + 1 // what r sends me
			rdispls[r] = rTotal
			rTotal += recvCounts[r]
		}
		send := c.Device().MustMalloc(int64(sTotal) * 8)
		recv := c.Device().MustMalloc(int64(rTotal) * 8)
		for r := 0; r < n; r++ {
			for i := 0; i < sendCounts[r]; i++ {
				send.SetFloat64(sdispls[r]+i, float64(c.Rank()*100+r*10+i))
			}
		}
		c.Alltoallv(send, sendCounts, sdispls, Float64, recv, recvCounts, rdispls)
		for r := 0; r < n; r++ {
			for i := 0; i < recvCounts[r]; i++ {
				got := recv.Float64(rdispls[r] + i)
				want := float64(r*100 + c.Rank()*10 + i)
				if got != want {
					t.Fatalf("rank %d block %d elem %d = %v, want %v", c.Rank(), r, i, got, want)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherScatterRoundTrip(t *testing.T) {
	for _, n := range []int{2, 5, 8} {
		const count = 128
		j := newTestJob(t, n)
		err := j.Run(func(c *Comm) {
			root := 0
			mine := c.Device().MustMalloc(count * 8)
			fillRank(mine, c.Rank(), count)
			gathered := c.Device().MustMalloc(int64(n) * count * 8)
			c.Gather(mine, count, Float64, gathered, root)
			if c.Rank() == root {
				for r := 0; r < n; r++ {
					if gathered.Float64(r*count+5) != float64(r*1000+5) {
						t.Errorf("gather block %d wrong", r)
					}
				}
			}
			// Scatter the gathered data back out; every rank must get its
			// original block.
			back := c.Device().MustMalloc(count * 8)
			c.Scatter(gathered, count, Float64, back, root)
			if back.Float64(7) != float64(c.Rank()*1000+7) {
				t.Errorf("scatter to rank %d wrong: %v", c.Rank(), back.Float64(7))
			}
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestReduceScatterBlock(t *testing.T) {
	for _, n := range []int{2, 4, 7} {
		const count = 100
		j := newTestJob(t, n)
		err := j.Run(func(c *Comm) {
			send := c.Device().MustMalloc(int64(n*count) * 8)
			recv := c.Device().MustMalloc(count * 8)
			for i := 0; i < n*count; i++ {
				send.SetFloat64(i, float64(i)+float64(c.Rank()))
			}
			c.ReduceScatterBlock(send, recv, count, Float64, OpSum)
			sumRankOffsets := float64(n*(n-1)) / 2
			for i := 0; i < count; i += 9 {
				idx := c.Rank()*count + i
				want := float64(n)*float64(idx) + sumRankOffsets
				if recv.Float64(i) != want {
					t.Fatalf("n=%d rank=%d elem %d = %v, want %v", n, c.Rank(), i, recv.Float64(i), want)
				}
			}
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestCommSplitSubCommunicators splits the world into two parity groups,
// one Subset each, whose allreduces run side by side.
func TestCommSplitSubCommunicators(t *testing.T) {
	j := newTestJob(t, 8)
	err := j.Run(func(c *Comm) {
		members := []int{0, 2, 4, 6}
		if c.Rank()%2 == 1 {
			members = []int{1, 3, 5, 7}
		}
		sub := c.Subset(members)
		if sub.Size() != 4 {
			t.Errorf("sub size = %d", sub.Size())
		}
		// Allreduce within the group must only sum the group's members.
		send := sub.Device().MustMalloc(8)
		recv := sub.Device().MustMalloc(8)
		send.SetFloat64(0, float64(c.Rank()))
		sub.Allreduce(send, recv, 1, Float64, OpSum)
		want := 0.0 + 2 + 4 + 6
		if c.Rank()%2 == 1 {
			want = 1 + 3 + 5 + 7
		}
		if recv.Float64(0) != want {
			t.Errorf("rank %d sub-sum = %v, want %v", c.Rank(), recv.Float64(0), want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Collective timing sanity: for a fixed op, latency grows with message size
// and the large-message algorithm is bandwidth-bound, not latency-bound.
func TestAllreduceLatencyMonotoneInSize(t *testing.T) {
	var prev time.Duration
	for _, count := range []int{64, 1024, 16384, 262144} {
		j := newTestJob(t, 8)
		var lat time.Duration
		err := j.Run(func(c *Comm) {
			send := c.Device().MustMalloc(int64(count) * 4)
			recv := c.Device().MustMalloc(int64(count) * 4)
			c.Barrier()
			start := c.Proc().Now()
			c.Allreduce(send, recv, count, Float32, OpSum)
			if d := c.Proc().Now() - start; d > lat {
				lat = d
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if lat <= prev {
			t.Fatalf("latency not monotone: %v after %v at count %d", lat, prev, count)
		}
		prev = lat
	}
}

func TestCollectivesOnSingleRank(t *testing.T) {
	j := newTestJob(t, 1)
	err := j.Run(func(c *Comm) {
		buf := c.Device().MustMalloc(64)
		out := c.Device().MustMalloc(64)
		c.Barrier()
		c.Bcast(buf, 8, Float64, 0)
		buf.SetFloat64(0, 5)
		c.Allreduce(buf, out, 8, Float64, OpSum)
		if out.Float64(0) != 5 {
			t.Errorf("single-rank allreduce = %v", out.Float64(0))
		}
		c.Allgather(buf, 8, Float64, out)
		c.Alltoall(buf, 8, Float64, out)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommSubsetExcludesNonMembers(t *testing.T) {
	j := newTestJob(t, 4)
	err := j.Run(func(c *Comm) {
		// Rank 1 sits out entirely — MPI_Comm_create_group semantics: the
		// excluded rank is not asked to participate in the rendezvous.
		if c.Rank() == 1 {
			return
		}
		sub := c.Subset([]int{0, 2, 3})
		if sub.Size() != 3 {
			t.Errorf("subset size = %d, want 3", sub.Size())
		}
		wantLocal := map[int]int{0: 0, 2: 1, 3: 2}[c.Rank()]
		if sub.Rank() != wantLocal {
			t.Errorf("rank %d got subset rank %d, want %d", c.Rank(), sub.Rank(), wantLocal)
		}
		if sub.WorldRank() != c.Rank() || sub.WorldRankOf(sub.Rank()) != c.Rank() {
			t.Errorf("rank %d: world identity lost across Subset", c.Rank())
		}
		// Traffic on the subset must only involve its members.
		send := sub.Device().MustMalloc(8)
		recv := sub.Device().MustMalloc(8)
		send.SetFloat64(0, float64(c.Rank()))
		sub.Allreduce(send, recv, 1, Float64, OpSum)
		if want := 0.0 + 2 + 3; recv.Float64(0) != want {
			t.Errorf("rank %d subset sum = %v, want %v", c.Rank(), recv.Float64(0), want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// The collective matrix across every CCL-mappable datatype: allreduce
// sums must be exact for integer-valued payloads in every type.
func TestAllreduceDatatypeMatrix(t *testing.T) {
	for _, dt := range []Datatype{Byte, Int32, Int64, Float16, Float32, Float64} {
		const n = 4
		j := newTestJob(t, n)
		err := j.Run(func(c *Comm) {
			count := 32
			esz := int64(dt.Size())
			send := c.Device().MustMalloc(int64(count) * esz)
			recv := c.Device().MustMalloc(int64(count) * esz)
			for i := 0; i < count; i++ {
				elem.Set(dt.Kind(), send.Bytes(), i, float64(c.Rank()%2+1), 0)
			}
			c.Allreduce(send, recv, count, dt, OpSum)
			want := 6.0 // 1+2+1+2
			for i := 0; i < count; i += 7 {
				re, _ := elem.Get(dt.Kind(), recv.Bytes(), i)
				if re != want {
					t.Errorf("%v elem %d = %v, want %v", dt, i, re, want)
				}
			}
		})
		if err != nil {
			t.Fatalf("%v: %v", dt, err)
		}
	}
}
