package mpi

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"time"

	"mpixccl/internal/fabric"
)

// recvRow is one scenario of TestBlockingRecvVirtualTime: a job, the
// program every rank runs, and the log it must produce. A rank calls mark
// after each blocking call, which logs "r<rank>@<ns>": the log holds every
// rank's completion times in the order the ranks resumed.
type recvRow struct {
	name string
	job  func(t *testing.T) *Job
	run  func(c *Comm, mark func()) []byte
	log  string
	hash uint64 // FNV-64a of every rank's received bytes, in rank order
}

// recvPair runs one blocking message per protocol and arrival order from
// rank a to rank b: eager and rendezvous, unexpected (the receive is posted
// 5 µs late) and posted (the send starts 5 µs late), then one AnySource
// receive of two racing eager messages. It returns the bytes rank b
// received.
func recvPair(c *Comm, mark func(), a, b int) []byte {
	const gap = 5 * time.Microsecond
	eager, rndv := 128, int(c.Profile().EagerThreshold/8)+64
	bufDev := c.Device().MustMalloc(int64(rndv) * 8)
	var got []byte
	r := c.Rank()
	for i, count := range []int{eager, eager, rndv, rndv} {
		late := i%2 == 0 // receive late: the message is unexpected
		switch r {
		case a:
			fillRank(bufDev, r*10+i, count)
			if !late {
				c.proc.Sleep(gap)
			}
			c.Send(bufDev, count, Float64, b, i)
			mark()
		case b:
			if late {
				c.proc.Sleep(gap)
			}
			c.Recv(bufDev, count, Float64, a, i)
			mark()
			got = append(got, bufDev.Bytes()[:count*8]...)
		}
	}
	switch r {
	case a:
		fillRank(bufDev, r*10+7, eager)
		c.Send(bufDev, eager, Float64, b, 9)
		mark()
	case b:
		for i := 0; i < 2; i++ {
			st := c.Recv(bufDev, eager, Float64, AnySource, 9)
			mark()
			got = append(got, byte(st.Source))
			got = append(got, bufDev.Bytes()[:eager*8]...)
		}
	default:
		if r == (b+1)%c.Size() {
			fillRank(bufDev, r*10+8, eager)
			c.Send(bufDev, eager, Float64, b, 9)
			mark()
		}
	}
	return got
}

// windowDegrader degrades every route for transfers and control messages
// that start in [from, to).
type windowDegrader struct {
	from, to time.Duration
	lf       fabric.LinkFault
}

func (w windowDegrader) DegradedLink(_ string, _, _ int, now time.Duration) (fabric.LinkFault, bool) {
	return w.lf, now >= w.from && now < w.to
}

func (w windowDegrader) DegradedNow(now time.Duration) (fabric.LinkFault, bool) {
	return w.DegradedLink("", 0, 0, now)
}

// rndvPair runs rendezvous messages from rank a to rank b: a blocking Send
// and Recv, unexpected (the receive is posted 5 µs late) and posted (the
// send starts 5 µs late), then an Isend and an Irecv on the ranks' progress
// workers, each completed by Wait. It returns the bytes rank b received.
func rndvPair(c *Comm, mark func(), a, b int) []byte {
	const gap = 5 * time.Microsecond
	rndv := int(c.Profile().EagerThreshold/8) + 64
	buf := c.Device().MustMalloc(int64(rndv) * 8)
	var got []byte
	r := c.Rank()
	for i, late := range []bool{true, false} {
		switch r {
		case a:
			fillRank(buf, r*10+i, rndv)
			if !late {
				c.proc.Sleep(gap)
			}
			c.Send(buf, rndv, Float64, b, i)
			mark()
		case b:
			if late {
				c.proc.Sleep(gap)
			}
			c.Recv(buf, rndv, Float64, a, i)
			mark()
			got = append(got, buf.Bytes()...)
		}
	}
	switch r {
	case a:
		fillRank(buf, r*10+2, rndv)
		c.Wait(c.Isend(buf, rndv, Float64, b, 2))
		mark()
	case b:
		c.Wait(c.Irecv(buf, rndv, Float64, a, 2))
		mark()
		got = append(got, buf.Bytes()...)
	}
	return got
}

// ringRecv has every rank exchange with its ring neighbors twice: once
// through Sendrecv, and once as a blocking Send and Recv, even ranks
// sending first. It returns the bytes the rank received.
func ringRecv(c *Comm, mark func()) []byte {
	n, r := c.Size(), c.Rank()
	from, to := (r+n-1)%n, (r+1)%n
	send := c.Device().MustMalloc(int64(r+1) * 128)
	recv := c.Device().MustMalloc(int64(from+1) * 128)
	fillRank(send, r, (r+1)*16)
	c.Sendrecv(send, (r+1)*16, Float64, to, 4, recv, (from+1)*16, Float64, from, 4)
	mark()
	got := append([]byte(nil), recv.Bytes()...)
	if r%2 == 0 {
		c.Send(send, (r+1)*16, Float64, to, 5)
		mark()
		c.Recv(recv, (from+1)*16, Float64, from, 5)
	} else {
		c.Recv(recv, (from+1)*16, Float64, from, 5)
		mark()
		c.Send(send, (r+1)*16, Float64, to, 5)
	}
	mark()
	return append(got, recv.Bytes()...)
}

var recvRows = []recvRow{
	{
		// Rank 0 to 1 within a node and rank 2 to 10 across nodes, each
		// with rank 3 and 11 racing it into an AnySource receive.
		name: "blocking-recv",
		job:  func(t *testing.T) *Job { return newTestJob(t, 16) },
		run: func(c *Comm, mark func()) []byte {
			return append(recvPair(c, mark, 0, 1), recvPair(c, mark, 2, 10)...)
		},
		log:  "r0@2244 r2@2244 r11@2244 r2@5256 r1@5300 r10@5300 r0@9488 r1@9488 r2@13268 r10@13268 r0@19127 r1@19127 r2@25424 r10@25424 r0@28866 r1@28866 r1@29166 r1@29466 r0@31110 r2@37680 r10@37680 r10@37980 r10@38280 r2@40692",
		hash: 0x98b9ecba8414b8f3,
	},
	{
		// Rank 0 posts a receive from every rank and then Isends each a
		// small message; every other rank Sendrecvs with it a microsecond
		// in. Their sends take the posted path and contend for node 0's NIC
		// ingress, so they finish after their receives have.
		name: "sendrecv-fan-in",
		job:  func(t *testing.T) *Job { return newTestJob(t, 24) },
		run: func(c *Comm, mark func()) []byte {
			n, r := c.Size(), c.Rank()
			big, small := 1024, 4
			if r != 0 {
				send := c.Device().MustMalloc(int64(big) * 8)
				recv := c.Device().MustMalloc(int64(small) * 8)
				fillRank(send, r, big)
				c.proc.Sleep(time.Microsecond)
				c.Sendrecv(send, big, Float64, 0, 2, recv, small, Float64, 0, 3)
				mark()
				return recv.Bytes()
			}
			send := c.Device().MustMalloc(int64(small) * 8)
			all := c.Device().MustMalloc(int64(n) * int64(big) * 8)
			fillRank(send, 0, small)
			reqs := make([]*Request, 0, 2*n)
			for q := 1; q < n; q++ {
				reqs = append(reqs, c.Irecv(all.Slice(int64(q)*int64(big)*8, int64(big)*8), big, Float64, q, 2))
			}
			for q := 1; q < n; q++ {
				reqs = append(reqs, c.Isend(send, small, Float64, q, 3))
			}
			c.Waitall(reqs)
			mark()
			return all.Bytes()
		},
		log:  "r1@3558 r2@3558 r3@3558 r4@3558 r5@3558 r6@3558 r7@3558 r8@4800 r9@4800 r10@4800 r16@5700 r17@5700 r18@5700 r11@6600 r12@6600 r13@6600 r19@7500 r20@7500 r21@7500 r22@8400 r14@8400 r15@8400 r23@9300 r0@9300",
		hash: 0x6c78ba4af2eeddd0,
	},
	{
		// The openmpi-ucx flavor's staging penalty makes each Sendrecv's
		// send finish after its receive.
		name: "ring-openmpi-ucx",
		job: func(t *testing.T) *Job {
			return newSystemJob(t, "thetagpu", 16, OpenMPIUCXProfile())
		},
		run:  ringRecv,
		log:  "r1@3083 r2@3166 r3@3266 r4@3366 r5@3450 r6@3550 r8@3803 r7@3803 r9@3833 r10@3916 r0@4009 r11@4016 r12@4100 r13@4200 r15@4300 r14@4300 r7@4703 r2@6332 r3@6332 r4@6732 r5@6732 r0@6992 r1@6992 r6@7100 r8@7536 r9@7536 r4@7632 r10@7832 r11@7832 r6@8000 r12@8200 r13@8200 r8@8436 r7@8506 r14@8600 r15@8600 r10@8732 r12@9101 r14@9501 r3@9598 r1@10075 r2@10075 r5@10182 r9@11369 r11@11848 r13@12400 r15@12609 r0@12609",
		hash: 0x5b4de7aff349eaf5,
	},
	{
		// Equal send and receive overheads put a receive's matching and a
		// send's injection in one instant.
		name: "overhead-tie",
		job: func(t *testing.T) *Job {
			prof := MVAPICHProfile()
			prof.RecvOverhead = prof.SendOverhead
			return newSystemJob(t, "thetagpu", 2, prof)
		},
		run: func(c *Comm, mark func()) []byte {
			peer := 1 - c.Rank()
			send, recv := c.Device().MustMalloc(512), c.Device().MustMalloc(512)
			fillRank(send, c.Rank(), 64)
			c.Sendrecv(send, 64, Float64, peer, 0, recv, 64, Float64, peer, 0)
			mark()
			got := append([]byte(nil), recv.Bytes()...)
			if c.Rank() == 0 {
				c.Send(send, 64, Float64, peer, 1)
				mark()
				c.Recv(recv, 64, Float64, peer, 1)
			} else {
				c.Recv(recv, 64, Float64, peer, 1)
				mark()
				c.Send(send, 64, Float64, peer, 1)
			}
			mark()
			return append(got, recv.Bytes()...)
		},
		log:  "r1@2222 r0@2222 r0@4444 r1@4444 r1@6666 r0@6666",
		hash: 0xb58e512e629344b5,
	},
	{
		// Integrity on with a corrupter: some transfers recover by
		// retransmitting, others exhaust the budget and deliver corrupt.
		name: "ring-integrity",
		job: func(t *testing.T) *Job {
			j := newTestJob(t, 16)
			j.Fabric().SetIntegrity(fabric.Integrity{Enabled: true, MaxRetries: 2})
			j.Fabric().SetFaults(&flipCorrupter{seen: map[int64]int{}})
			return j
		},
		run:  ringRecv,
		log:  "r1@5815 r2@5848 r4@5866 r3@5866 r5@5899 r7@5917 r6@5917 r8@5950 r10@5968 r9@5968 r11@6001 r13@6016 r12@6016 r14@6052 r4@8094 r5@8094 r6@8156 r7@8156 r10@8229 r11@8229 r12@8288 r13@8288 r14@8336 r0@8575 r15@8575 r15@8876 r13@10566 r14@10566 r0@10780 r1@10780 r0@11081 r7@11168 r2@11696 r3@11696 r8@11900 r9@11900 r2@11996 r15@12001 r8@12200 r1@12991 r3@13918 r4@13918 r5@13993 r6@13993 r9@14156 r10@14156 r11@14230 r12@14230",
		hash: 0xd45bbc05df3d5f3a,
	},
	{
		// Rank 0 to 1 within a node and rank 2 to 10 across nodes, inside a
		// link-degradation window that scales α and caps the channels: the
		// rendezvous RTS and CTS pay the scaled α.
		name: "rendezvous-degraded",
		job: func(t *testing.T) *Job {
			j := newTestJob(t, 16)
			j.Fabric().SetFaults(windowDegrader{from: 0, to: time.Millisecond,
				lf: fabric.LinkFault{AlphaScale: 3, ChannelCap: 1}})
			return j
		},
		run: func(c *Comm, mark func()) []byte {
			return append(rndvPair(c, mark, 0, 1), rndvPair(c, mark, 2, 10)...)
		},
		log:  "r0@12679 r1@12679 r2@19113 r10@19113 r0@30358 r1@30358 r0@43037 r1@43037 r2@43226 r10@43226 r2@62339 r10@62339",
		hash: 0x4ccc2a165d2deea8,
	},
}

// TestBlockingRecvVirtualTime pins the modeled completion time and the
// resume order of every blocking receive and Sendrecv in six scenarios:
// eager and rendezvous messages, unexpected and posted, within and across
// nodes, and AnySource; Sendrecvs whose sends finish after their receives,
// by contention and by staging; overheads that tie; integrity
// retransmits; and rendezvous handshakes, blocking and on progress
// workers, inside a link-degradation window.
func TestBlockingRecvVirtualTime(t *testing.T) {
	for _, row := range recvRows {
		t.Run(row.name, func(t *testing.T) {
			j := row.job(t)
			var log []string
			bufs := make([][]byte, j.Size())
			err := j.Run(func(c *Comm) {
				mark := func() { log = append(log, fmt.Sprintf("r%d@%d", c.Rank(), c.Proc().Now())) }
				bufs[c.Rank()] = row.run(c, mark)
			})
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, b := range bufs {
				h.Write(b)
			}
			if got := strings.Join(log, " "); got != row.log {
				t.Errorf("log =\n%s\nwant\n%s", got, row.log)
			}
			if h.Sum64() != row.hash {
				t.Errorf("buffers hash to %#x, want %#x", h.Sum64(), row.hash)
			}
		})
	}
}
