package mpi

import (
	"fmt"
	"testing"
	"time"

	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
)

// TestRankResumesPerCall pins how often a blocking call resumes the rank's
// process: a receive, a Sendrecv and a Send run their protocol machines in
// the rank's own wake-ups without switching to it (sim.Proc.Drive), and so
// does every collective's program, so each resumes the rank exactly once,
// when it returns. That holds for receives and sends of every protocol and
// arrival order, for Sendrecvs whose sends finish after their receives, for
// eager sends whose posted-path transfers contend, with integrity
// retransmits, for every algorithm branch of every collective
// (TestCollectiveVirtualTime's ops), and for the Wait of each nonblocking
// collective, whose program runs on a progress process. The kernel's resume
// hook counts the resumes.
func TestRankResumesPerCall(t *testing.T) {
	worlds := map[string]func(t *testing.T) *Job{
		"mvapich":     func(t *testing.T) *Job { return newTestJob(t, 16) },
		"openmpi-ucx": func(t *testing.T) *Job { return newSystemJob(t, "thetagpu", 16, OpenMPIUCXProfile()) },
		"integrity": func(t *testing.T) *Job {
			j := newTestJob(t, 16)
			j.Fabric().SetIntegrity(fabric.Integrity{Enabled: true, MaxRetries: 2})
			j.Fabric().SetFaults(&flipCorrupter{seen: map[int64]int{}})
			return j
		},
	}
	for name, world := range worlds {
		t.Run(name, func(t *testing.T) {
			j := world(t)
			rank := map[*sim.Proc]int{}
			resumes := make([]int, j.Size())
			j.Fabric().Kernel().OnResume(func(p *sim.Proc) {
				if r, ok := rank[p]; ok {
					resumes[r]++
				}
			})
			var bad []string
			// once runs call on c's rank and records it unless it resumed
			// the rank exactly once.
			once := func(c *Comm, what string, call func()) {
				before := resumes[c.Rank()]
				call()
				if n := resumes[c.Rank()] - before; n != 1 {
					bad = append(bad, fmt.Sprintf("rank %d %s: %d resumes", c.Rank(), what, n))
				}
			}
			err := j.Run(func(c *Comm) {
				rank[c.Proc()] = c.Rank()
				n, r := c.Size(), c.Rank()
				eager, rndv := 128, int(c.Profile().EagerThreshold/8)+64
				send, recv := c.Device().MustMalloc(int64(rndv)*8), c.Device().MustMalloc(int64(n)*int64(rndv)*8)
				fillRank(send, r, rndv)
				once(c, "Barrier", c.Barrier)

				// Rank 0 receives from every other rank: the odd ranks'
				// messages arrive before the receive is posted (and the
				// even ranks' after), eagerly, then by rendezvous.
				for _, count := range []int{eager, rndv} {
					if r == 0 {
						for q := 1; q < n; q++ {
							if q%2 == 1 {
								c.proc.Sleep(20 * time.Microsecond) // the message waits
							}
							once(c, fmt.Sprintf("Recv of %d from %d", count, q), func() {
								c.Recv(recv, count, Float64, q, count)
							})
						}
					} else {
						if r%2 == 0 {
							c.proc.Sleep(20 * time.Microsecond)
						}
						once(c, fmt.Sprintf("Send of %d", count), func() { c.Send(send, count, Float64, 0, count) })
					}
					c.Barrier()
				}

				// Every other rank sends rank 0 an eager message at once,
				// into receives it posted beforehand: the inter-node
				// transfers contend for node 0's NIC ingress.
				if r == 0 {
					reqs := make([]*Request, 0, n)
					for q := 1; q < n; q++ {
						reqs = append(reqs, c.Irecv(recv.Slice(int64(q)*int64(eager)*64, int64(eager)*64), eager*8, Float64, q, 1))
					}
					c.Waitall(reqs)
				} else {
					c.proc.Sleep(time.Microsecond)
					once(c, "eager Send into a posted receive", func() { c.Send(send, eager*8, Float64, 0, 1) })
				}
				c.Barrier()

				// Sendrecv rings, eager and rendezvous.
				to, from := (r+1)%n, (r+n-1)%n
				for _, count := range []int{eager, rndv} {
					once(c, fmt.Sprintf("Sendrecv of %d", count), func() {
						c.Sendrecv(send, count, Float64, to, 2, recv, count, Float64, from, 2)
					})
				}

				// Every collective branch, and each Iallreduce's Wait alone
				// (collVTOps' iallreduce waits for two).
				b := &collVTBufs{in: c.Device().MustMalloc(cvInLen * 8), out: c.Device().MustMalloc(cvOutLen * 8)}
				fillRank(b.in, r+1, cvInLen)
				for q := 0; q < n; q++ {
					cnt := 64 * (1 + (r+q)%4)
					b.sc, b.rc, b.ds = append(b.sc, cnt), append(b.rc, cnt), append(b.ds, q*cvRndv)
				}
				for _, op := range collVTOps {
					if op.name != "iallreduce" {
						once(c, op.name, func() { op.run(c, b) })
					}
				}
				for _, count := range []int{1, cvLong} {
					req := c.Iallreduce(b.in, b.out, count, Float64, OpSum)
					once(c, fmt.Sprintf("Wait of Iallreduce of %d", count), func() { c.Wait(req) })
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range bad {
				t.Error(b)
			}
		})
	}
}
