package mpi

import (
	"fmt"
	"testing"
	"time"

	"mpixccl/internal/fabric"
	"mpixccl/internal/sim"
)

// TestRankResumesPerCall pins how often a blocking point-to-point call
// resumes the rank's process: a receive, a Sendrecv and a Send run their
// protocol machines in the rank's own wake-ups without switching to it
// (sim.Proc.Drive), so each resumes the rank exactly once, when it
// returns. That holds for receives and sends of every protocol and arrival
// order, for Sendrecvs whose sends finish after their receives, for eager
// sends whose posted-path transfers contend, and with integrity
// retransmits.
// A 16-rank Barrier, a collective entry plus four Sendrecv rounds, resumes
// each rank at most 5 times. The kernel's resume hook counts the resumes.
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
				before := resumes[r]
				c.Barrier()
				if got := resumes[r] - before; got > 5 {
					bad = append(bad, fmt.Sprintf("rank %d Barrier: %d resumes, want at most 5", r, got))
				}

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
