//go:build !race

// The race detector instruments allocations, so the zero-alloc pins in
// this file only hold in a normal build.

package mpi

import (
	"runtime"
	"testing"
	"time"

	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

// A small message allocates nothing once a rank's free lists are warm:
// eager envelopes and their bounce bytes, posted receives and their
// events, and Sendrecv's request and progress process are all reused.
// Each case runs one exchange per iteration on both ranks of a two-rank
// job; rank 0 measures its iterations, which take rank 1's along.
func TestEagerMessageAllocs(t *testing.T) {
	const count = 64 // 512 B of float64s: eager
	const gap = 20 * time.Microsecond
	const warm = 8
	cases := []struct {
		name string
		// step runs one exchange with the peer and reports whether the
		// messages this rank sent took the case's path.
		step func(c *Comm, peer int, send, recv *device.Buffer) bool
	}{
		{"unexpected", func(c *Comm, peer int, send, recv *device.Buffer) bool {
			// Both ranks send, then receive once the peer's message waits.
			c.Send(send, count, Float64, peer, 0)
			queued := len(c.ctx.match[peer].unexpected) == 1
			c.proc.Sleep(gap)
			c.Recv(recv, count, Float64, peer, 0)
			return queued
		}},
		{"posted", func(c *Comm, peer int, send, recv *device.Buffer) bool {
			// Each rank sends a gap after the peer has posted its receive.
			if c.Rank() == 0 {
				c.Recv(recv, count, Float64, peer, 0)
			}
			c.proc.Sleep(gap)
			posted := len(c.ctx.match[peer].posted) == 1
			c.Send(send, count, Float64, peer, 0)
			if c.Rank() == 1 {
				c.Recv(recv, count, Float64, peer, 0)
			}
			return posted
		}},
		{"sendrecv", func(c *Comm, peer int, send, recv *device.Buffer) bool {
			c.Sendrecv(send, count, Float64, peer, 0, recv, count, Float64, peer, 0)
			return true
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := newTestJob(t, 2)
			var allocs float64
			onPath := true
			err := j.Run(func(c *Comm) {
				peer := 1 - c.Rank()
				send := c.Device().MustMalloc(count * 8)
				recv := c.Device().MustMalloc(count * 8)
				step := func() { onPath = tc.step(c, peer, send, recv) && onPath }
				for i := 0; i < warm; i++ {
					step()
				}
				if c.Rank() == 0 {
					allocs = testing.AllocsPerRun(100, step)
					return
				}
				for i := 0; i < 101; i++ { // AllocsPerRun(100, f) invokes f 101 times
					step()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if !onPath {
				t.Fatalf("a message missed the %s path", tc.name)
			}
			if allocs != 0 {
				t.Errorf("%s eager message allocates %.2f objects per exchange; want 0", tc.name, allocs)
			}
		})
	}
}

// An eager Isend completed by Wait allocates two objects: the request and
// the waiter list its Wait appends the rank to. Everything the send runs
// on is reused once warm. Rank 0 sends, rank 1 receives; rank 0 measures
// its iterations, which take rank 1's along.
func TestEagerIsendAllocs(t *testing.T) {
	const count = 64 // 512 B of float64s: eager
	const warm = 8
	j := newTestJob(t, 2)
	var allocs float64
	err := j.Run(func(c *Comm) {
		buf := c.Device().MustMalloc(count * 8)
		if c.Rank() == 1 {
			for i := 0; i < warm+101; i++ { // AllocsPerRun(100, f) invokes f 101 times
				c.Recv(buf, count, Float64, 0, 0)
			}
			return
		}
		step := func() { c.Wait(c.Isend(buf, count, Float64, 1, 0)) }
		for i := 0; i < warm; i++ {
			step()
		}
		allocs = testing.AllocsPerRun(100, step)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 2 {
		t.Errorf("eager Isend+Wait allocates %.2f objects; want at most 2 (the request and its waiter list)", allocs)
	}
}

// A blocking rendezvous message allocates nothing once warm either: the
// send and receive states, the transfer, and on the unexpected path the
// envelope with its events, are all reused, and the posted path builds no
// envelope. Rank 0 sends and measures its iterations, which take rank 1's
// receives along.
func TestRendezvousMessageAllocs(t *testing.T) {
	const gap = 20 * time.Microsecond
	const warm = 8
	cases := []struct {
		name string
		// step runs one message from rank 0 to rank 1 and reports whether
		// it took the case's path.
		step func(c *Comm, buf *device.Buffer, count int) bool
	}{
		{"unexpected", func(c *Comm, buf *device.Buffer, count int) bool {
			if c.Rank() == 0 {
				c.Send(buf, count, Float64, 1, 0)
				return true
			}
			c.proc.Sleep(gap)
			queued := len(c.ctx.match[1].unexpected) == 1
			c.Recv(buf, count, Float64, 0, 0)
			return queued
		}},
		{"posted", func(c *Comm, buf *device.Buffer, count int) bool {
			if c.Rank() == 1 {
				c.Recv(buf, count, Float64, 0, 0)
				return true
			}
			c.proc.Sleep(gap)
			posted := len(c.ctx.match[1].posted) == 1
			c.Send(buf, count, Float64, 1, 0)
			return posted
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := newTestJob(t, 2)
			var allocs float64
			onPath := true
			err := j.Run(func(c *Comm) {
				count := int(c.Profile().EagerThreshold/8) + 64
				buf := c.Device().MustMalloc(int64(count) * 8)
				step := func() { onPath = tc.step(c, buf, count) && onPath }
				for i := 0; i < warm; i++ {
					step()
				}
				if c.Rank() == 0 {
					allocs = testing.AllocsPerRun(100, step)
					return
				}
				for i := 0; i < 101; i++ { // AllocsPerRun(100, f) invokes f 101 times
					step()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if !onPath {
				t.Fatalf("a message missed the %s path", tc.name)
			}
			if allocs != 0 {
				t.Errorf("%s rendezvous message allocates %.2f objects; want 0", tc.name, allocs)
			}
		})
	}
}

// A warm collective call allocates only its scratch buffers' headers
// (device.Buffer values; their bytes are recycled by the device): the
// program, its steps, its sendrecv request and receive, and every send and
// receive state it runs are reused. Every rank runs 100 calls between two
// sim barriers, which allocate nothing, and rank 0 reads the heap's
// allocation count on either side of them.
func TestCollectiveAllocs(t *testing.T) {
	const ranks, warm, calls = 4, 8, 100
	cases := []struct {
		name    string
		call    func(c *Comm, send, recv *device.Buffer)
		scratch int // scratch buffers per rank and call
	}{
		{"barrier", func(c *Comm, _, _ *device.Buffer) { c.Barrier() }, 2},
		{"allreduce-8B", func(c *Comm, send, recv *device.Buffer) { c.Allreduce(send, recv, 1, Float64, OpSum) }, 1},
		{"allgather-bruck", func(c *Comm, send, recv *device.Buffer) { c.Allgather(send, 64, Float64, recv) }, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := newTestJob(t, ranks)
			bar := sim.NewBarrier(j.Fabric().Kernel(), ranks)
			var before, after runtime.MemStats
			err := j.Run(func(c *Comm) {
				send, recv := c.Device().MustMalloc(64*8), c.Device().MustMalloc(ranks*64*8)
				for i := 0; i < warm; i++ {
					tc.call(c, send, recv)
				}
				bar.Wait(c.Proc())
				if c.Rank() == 0 {
					runtime.ReadMemStats(&before)
				}
				bar.Wait(c.Proc()) // no rank calls before rank 0 has read
				for i := 0; i < calls; i++ {
					tc.call(c, send, recv)
				}
				bar.Wait(c.Proc())
				if c.Rank() == 0 {
					runtime.ReadMemStats(&after)
				}
				bar.Wait(c.Proc()) // no rank exits before rank 0 has read
			})
			if err != nil {
				t.Fatal(err)
			}
			got := float64(after.Mallocs-before.Mallocs) / calls
			if want := float64(ranks * tc.scratch); got != want {
				t.Errorf("%s allocates %.2f objects per call; want %v (%d scratch headers on each of %d ranks)",
					tc.name, got, want, tc.scratch, ranks)
			}
		})
	}
}
