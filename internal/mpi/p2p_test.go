package mpi

import (
	"fmt"
	"testing"
	"time"

	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// newTestJob builds a ThetaGPU-like job with nranks ranks.
func newTestJob(t *testing.T, nranks int) *Job {
	t.Helper()
	return newSystemJob(t, "thetagpu", nranks, MVAPICHProfile())
}

// newSystemJob builds an nranks job with the given profile on the fewest
// nodes of the named topology preset that hold it, ranks filling nodes in
// order.
func newSystemJob(t *testing.T, system string, nranks int, prof Profile) *Job {
	t.Helper()
	cfg, err := topology.PresetConfig(system, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.NumNodes = (nranks + cfg.DevicesPerNode - 1) / cfg.DevicesPerNode
	k := sim.NewKernel()
	sys := topology.Build(k, cfg)
	return NewJobOnSystem(fabric.New(k, sys), prof, sys, nranks)
}

// fillRank writes a rank-specific pattern of float64s.
func fillRank(buf *device.Buffer, rank, count int) {
	for i := 0; i < count; i++ {
		buf.SetFloat64(i, float64(rank*1000+i))
	}
}

func TestSendRecvEagerDelivers(t *testing.T) {
	j := newTestJob(t, 2)
	const count = 64 // 512 B, well under eager threshold
	err := j.Run(func(c *Comm) {
		buf := c.Device().MustMalloc(count * 8)
		if c.Rank() == 0 {
			fillRank(buf, 0, count)
			c.Send(buf, count, Float64, 1, 7)
		} else {
			st := c.Recv(buf, count, Float64, 0, 7)
			if st.Source != 0 || st.Tag != 7 || st.Count != count {
				t.Errorf("status = %+v", st)
			}
			for i := 0; i < count; i++ {
				if buf.Float64(i) != float64(i) {
					t.Fatalf("element %d = %v", i, buf.Float64(i))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvRendezvousDelivers(t *testing.T) {
	j := newTestJob(t, 2)
	const count = 1 << 18 // 2 MB, rendezvous
	err := j.Run(func(c *Comm) {
		buf := c.Device().MustMalloc(count * 8)
		if c.Rank() == 0 {
			fillRank(buf, 0, count)
			c.Send(buf, count, Float64, 1, 0)
		} else {
			c.Recv(buf, count, Float64, 0, 0)
			for _, i := range []int{0, 1, count / 2, count - 1} {
				if buf.Float64(i) != float64(i) {
					t.Fatalf("element %d = %v", i, buf.Float64(i))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvBeforeSendAndAfterSend(t *testing.T) {
	// Exercise both matching orders: posted-then-sent, sent-then-posted.
	for _, recvFirst := range []bool{true, false} {
		j := newTestJob(t, 2)
		err := j.Run(func(c *Comm) {
			buf := c.Device().MustMalloc(1024)
			if c.Rank() == 0 {
				if !recvFirst {
					c.Proc().Sleep(0)
				} else {
					c.Proc().Sleep(100 * time.Microsecond)
				}
				buf.FillBytes(0xCD)
				c.Send(buf, 1024, Byte, 1, 3)
			} else {
				if !recvFirst {
					c.Proc().Sleep(100 * time.Microsecond)
				}
				c.Recv(buf, 1024, Byte, 0, 3)
				if buf.Bytes()[500] != 0xCD {
					t.Error("payload lost")
				}
			}
		})
		if err != nil {
			t.Fatalf("recvFirst=%v: %v", recvFirst, err)
		}
	}
}

func TestTagMatchingSelectsCorrectMessage(t *testing.T) {
	j := newTestJob(t, 2)
	err := j.Run(func(c *Comm) {
		a := c.Device().MustMalloc(8)
		b := c.Device().MustMalloc(8)
		if c.Rank() == 0 {
			a.SetFloat64(0, 1.0)
			b.SetFloat64(0, 2.0)
			c.Send(a, 1, Float64, 1, 10)
			c.Send(b, 1, Float64, 1, 20)
		} else {
			// Receive in reverse tag order.
			c.Recv(a, 1, Float64, 0, 20)
			c.Recv(b, 1, Float64, 0, 10)
			if a.Float64(0) != 2.0 || b.Float64(0) != 1.0 {
				t.Errorf("tag matching delivered %v/%v", a.Float64(0), b.Float64(0))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	j := newTestJob(t, 3)
	err := j.Run(func(c *Comm) {
		buf := c.Device().MustMalloc(8)
		switch c.Rank() {
		case 0:
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				st := c.Recv(buf, 1, Float64, AnySource, AnyTag)
				seen[st.Source] = true
				if buf.Float64(0) != float64(st.Source)+0.5 {
					t.Errorf("payload %v from %d", buf.Float64(0), st.Source)
				}
			}
			if !seen[1] || !seen[2] {
				t.Errorf("sources seen: %v", seen)
			}
		default:
			buf.SetFloat64(0, float64(c.Rank())+0.5)
			c.Send(buf, 1, Float64, 0, c.Rank()*11)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderingSameTagFIFO(t *testing.T) {
	j := newTestJob(t, 2)
	const msgs = 5
	err := j.Run(func(c *Comm) {
		buf := c.Device().MustMalloc(8)
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				buf.SetFloat64(0, float64(i))
				c.Send(buf, 1, Float64, 1, 1)
			}
		} else {
			for i := 0; i < msgs; i++ {
				c.Recv(buf, 1, Float64, 0, 1)
				if buf.Float64(0) != float64(i) {
					t.Fatalf("message %d out of order: %v", i, buf.Float64(0))
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvOverlap(t *testing.T) {
	j := newTestJob(t, 2)
	const count = 1 << 16
	err := j.Run(func(c *Comm) {
		tx := c.Device().MustMalloc(count * 8)
		rx := c.Device().MustMalloc(count * 8)
		fillRank(tx, c.Rank(), count)
		peer := 1 - c.Rank()
		rreq := c.Irecv(rx, count, Float64, peer, 0)
		sreq := c.Isend(tx, count, Float64, peer, 0)
		st := c.Wait(rreq)
		c.Wait(sreq)
		if st.Source != peer {
			t.Errorf("status source = %d", st.Source)
		}
		if rx.Float64(3) != float64(peer*1000+3) {
			t.Errorf("rank %d got %v", c.Rank(), rx.Float64(3))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvExchange(t *testing.T) {
	j := newTestJob(t, 2)
	err := j.Run(func(c *Comm) {
		tx := c.Device().MustMalloc(64)
		rx := c.Device().MustMalloc(64)
		tx.FillBytes(byte(c.Rank() + 1))
		peer := 1 - c.Rank()
		c.Sendrecv(tx, 64, Byte, peer, 0, rx, 64, Byte, peer, 0)
		if rx.Bytes()[10] != byte(peer+1) {
			t.Errorf("rank %d received %d", c.Rank(), rx.Bytes()[10])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEagerLatencyBeatsRendezvous(t *testing.T) {
	// The same payload sent just under vs just over the eager threshold:
	// the rendezvous handshake must add latency.
	measure := func(count int) time.Duration {
		j := newTestJob(t, 2)
		var elapsed time.Duration
		err := j.Run(func(c *Comm) {
			buf := c.Device().MustMalloc(int64(count))
			if c.Rank() == 0 {
				start := c.Proc().Now()
				c.Send(buf, count, Byte, 1, 0)
				elapsed = c.Proc().Now() - start
			} else {
				c.Recv(buf, count, Byte, 0, 0)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	eager := measure(16 << 10)
	rndv := measure((16 << 10) + 1)
	if rndv <= eager {
		t.Fatalf("rendezvous (%v) not slower than eager (%v)", rndv, eager)
	}
}

func TestInterNodeSlowerThanIntraNode(t *testing.T) {
	j := newTestJob(t, 16) // 2 nodes
	var intra, inter time.Duration
	err := j.Run(func(c *Comm) {
		const count = 1 << 20
		buf := c.Device().MustMalloc(count)
		switch c.Rank() {
		case 0:
			start := c.Proc().Now()
			c.Send(buf, count, Byte, 1, 0) // same node
			intra = c.Proc().Now() - start
			start = c.Proc().Now()
			c.Send(buf, count, Byte, 8, 0) // next node
			inter = c.Proc().Now() - start
		case 1:
			c.Recv(buf, count, Byte, 0, 0)
		case 8:
			c.Recv(buf, count, Byte, 0, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if inter <= intra {
		t.Fatalf("inter-node %v not slower than intra-node %v", inter, intra)
	}
}

func TestSendToInvalidRankPanics(t *testing.T) {
	j := newTestJob(t, 2)
	err := j.Run(func(c *Comm) {
		if c.Rank() == 0 {
			defer func() {
				if recover() == nil {
					t.Error("send to rank 5 did not panic")
				}
			}()
			buf := c.Device().MustMalloc(8)
			c.Send(buf, 1, Float64, 5, 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// A receive that never matches is a deadlock naming every process it
// leaves blocked and why: a blocking Recv and the receive of a Sendrecv
// leave the rank waiting on the receive's event, an Irecv leaves its
// progress process waiting there and the rank waiting on the request, and
// a Sendrecv whose receive matched but whose rendezvous send never does
// leaves the rank waiting on its send.
func TestDeadlockDetectedOnMissingSend(t *testing.T) {
	const big = 4096 // 32 KiB of float64s: rendezvous
	cases := []struct {
		name    string
		rank1   func(c *Comm, small, large *device.Buffer)
		blocked string
	}{
		{"recv", func(c *Comm, small, _ *device.Buffer) {
			c.Recv(small, 1, Float64, 0, 0) // never sent
		}, "[rank1(event)]"},
		{"sendrecv", func(c *Comm, small, _ *device.Buffer) {
			c.Sendrecv(small, 1, Float64, 0, 1, small, 1, Float64, 0, 0)
		}, "[rank1(event)]"},
		{"irecv-wait", func(c *Comm, small, _ *device.Buffer) {
			c.Wait(c.Irecv(small, 1, Float64, 0, 0))
		}, "[mpi/r1/progress0(event) rank1(event)]"},
		{"sendrecv-send", func(c *Comm, small, large *device.Buffer) {
			c.Sendrecv(large, big, Float64, 0, 1, small, 1, Float64, 0, 2)
		}, "[mpi/r1/progress0(event) rank1(event)]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j := newTestJob(t, 2)
			err := j.Run(func(c *Comm) {
				small, large := c.Device().MustMalloc(8), c.Device().MustMalloc(big*8)
				if c.Rank() == 0 {
					c.Send(small, 1, Float64, 1, 2) // matches only sendrecv-send's receive
					return
				}
				tc.rank1(c, small, large)
			})
			de, ok := err.(*sim.DeadlockError)
			if !ok {
				t.Fatalf("err = %v, want DeadlockError", err)
			}
			if got := fmt.Sprint(de.Blocked); got != tc.blocked {
				t.Errorf("blocked = %s, want %s", got, tc.blocked)
			}
		})
	}
}

// Eager envelopes are recycled through the receiver's free list, payload
// bytes included. Rank 0 sends rounds of unexpected messages whose sizes
// grow, then shrink, under three interleaved tags, and ends each round
// with a marker. Rank 1 drains a round only after its marker, in another
// tag order, while rank 0 already queues the next round: freed envelopes
// carry new messages while older ones still wait. Every byte must arrive,
// and nothing past a message's end may be written.
func TestEagerEnvelopeReuse(t *testing.T) {
	j := newTestJob(t, 2)
	limit := int(j.profile.EagerThreshold)
	sizes := []int{1, 9, 100, 1000, 4000, limit, limit / 2, 700, 64, 5, 0, 2}
	const tags, marker, rounds = 3, 99, 4
	pattern := func(round, msg, b int) byte { return byte(round*131 + msg*31 + b*7 + 1) }
	err := j.Run(func(c *Comm) {
		buf := c.Device().MustMalloc(int64(limit))
		data := buf.Bytes()
		if c.Rank() == 0 {
			for round := 0; round < rounds; round++ {
				for i, n := range sizes {
					for b := 0; b < n; b++ {
						data[b] = pattern(round, i, b)
					}
					c.Send(buf, n, Byte, 1, i%tags)
				}
				c.Send(buf, 0, Byte, 1, marker)
			}
			return
		}
		for round := 0; round < rounds; round++ {
			c.Recv(buf, 0, Byte, 0, marker)
			for _, tag := range []int{2, 0, 1} {
				for i, n := range sizes {
					if i%tags != tag {
						continue
					}
					for b := range data {
						data[b] = 0xee
					}
					st := c.Recv(buf, limit, Byte, 0, tag)
					if st.Source != 0 || st.Tag != tag || st.Count != n {
						t.Fatalf("round %d message %d: status %+v, want tag %d count %d", round, i, st, tag, n)
					}
					for b, got := range data {
						want := byte(0xee)
						if b < n {
							want = pattern(round, i, b)
						}
						if got != want {
							t.Fatalf("round %d message %d (%d B): byte %d = %#x, want %#x", round, i, n, b, got, want)
						}
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
