package mpi

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"mpixccl/internal/fabric"
)

// TestEagerSendTieOrder pins where a nonblocking eager send starts when a
// receive is posted at the same instant as the send's overhead ends. Rank 0
// Isends and Waits, rank 1 Recvs, both at t = 0, and both overheads are
// 400 ns. The send's first step runs in the slot of the post and schedules
// the overhead from there, so rank 1's receive, scheduled before it, is
// posted first: the message takes the posted path and rank 1 finishes after
// the wire time. A send that scheduled its overhead at post time would
// find no receive and take the unexpected path, finishing rank 1 at 402 ns
// instead of 2202 ns. The send completes the posted receive before its own
// request, so rank 1 resumes before rank 0 at that instant.
func TestEagerSendTieOrder(t *testing.T) {
	prof := MVAPICHProfile()
	prof.RecvOverhead = prof.SendOverhead
	j := newSystemJob(t, "thetagpu", 2, prof)
	var done [2]time.Duration
	var resumed []int
	err := j.Run(func(c *Comm) {
		buf := c.Device().MustMalloc(64)
		if c.Rank() == 0 {
			buf.FillFloat64(3)
			c.Wait(c.Isend(buf, 8, Float64, 1, 0))
		} else {
			c.Recv(buf, 8, Float64, 0, 0)
			if buf.Float64(7) != 3 {
				t.Errorf("received %v, want 3", buf.Float64(7))
			}
		}
		done[c.Rank()] = c.Proc().Now()
		resumed = append(resumed, c.Rank())
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := [2]time.Duration{2202 * time.Nanosecond, 2202 * time.Nanosecond}; done != want {
		t.Errorf("completions = %v, want %v", done, want)
	}
	if fmt.Sprint(resumed) != "[1 0]" {
		t.Errorf("ranks resumed in order %v, want [1 0]: the posted receive completes before the send's request", resumed)
	}
}

// flipCorrupter corrupts one byte of an n-byte transfer by n's size class:
// a size of 3k·128 bytes on every attempt (the retransmit budget runs
// out), of (3k+1)·128 bytes on its first two attempts (a retry recovers
// within a budget of 2), and any other size never.
type flipCorrupter struct{ seen map[int64]int }

func (f *flipCorrupter) CorruptTransfer(_ string, _, _ int, n int64, _ time.Duration) []int64 {
	f.seen[n]++
	switch (n / 128) % 3 {
	case 0:
		return []int64{n / 2}
	case 1:
		if f.seen[n] <= 2 {
			return []int64{n - 1}
		}
	}
	return nil
}

// eagerRow is one scenario of TestEagerSendVirtualTime: a job and the
// program every rank runs, which returns the bytes the rank received.
type eagerRow struct {
	name  string
	job   func(t *testing.T) *Job
	run   func(c *Comm) []byte
	times []time.Duration // every rank's completion, in rank order
	hash  uint64          // FNV-64a of every rank's received bytes, in rank order
}

// ringSendrecv has every rank send (r+1)·16 float64s around the ring.
func ringSendrecv(c *Comm) []byte {
	n, r := c.Size(), c.Rank()
	from := (r + n - 1) % n
	send := c.Device().MustMalloc(int64(r+1) * 128)
	recv := c.Device().MustMalloc(int64(from+1) * 128)
	fillRank(send, r, (r+1)*16)
	c.Sendrecv(send, (r+1)*16, Float64, (r+1)%n, 4, recv, (from+1)*16, Float64, from, 4)
	return recv.Bytes()
}

var eagerRows = []eagerRow{
	{
		// Every rank Isends to rank 0 at once; rank 0 has posted receives
		// for the odd ranks, whose inter-node sends contend for node 0's
		// NIC ingress, and receives the even ranks' messages unexpected.
		name: "fan-in",
		job:  func(t *testing.T) *Job { return newTestJob(t, 24) },
		run: func(c *Comm) []byte {
			n, r := c.Size(), c.Rank()
			if r != 0 {
				buf := c.Device().MustMalloc(int64(r) * 512)
				fillRank(buf, r, r*64)
				c.Wait(c.Isend(buf, r*64, Float64, 0, 1))
				return nil
			}
			all := c.Device().MustMalloc(int64(n) * int64(n) * 512)
			slot := func(q int) int64 { return int64(q) * int64(n) * 512 }
			var reqs []*Request
			for q := 1; q < n; q += 2 {
				reqs = append(reqs, c.Irecv(all.Slice(slot(q), int64(q)*512), q*64, Float64, q, 1))
			}
			c.Waitall(reqs)
			for q := 2; q < n; q += 2 {
				c.Recv(all.Slice(slot(q), int64(q)*512), q*64, Float64, q, 1)
			}
			return all.Bytes()
		},
		times: nsDurations(
			9224, 2222, 2244, 2267, 2289, 2312, 2334, 2356, 3350, 3406, 3462,
			3518, 3575, 3631, 3687, 5205, 3800, 4362, 3912, 4587, 4025, 4812,
			4137, 5881,
		),
		hash: 0x4c106b4a8c21527d,
	},
	{
		// The openmpi-ucx flavor pays the non-GPU-direct staging penalty
		// on every device payload.
		name: "sendrecv-openmpi-ucx",
		job: func(t *testing.T) *Job {
			return newSystemJob(t, "thetagpu", 16, OpenMPIUCXProfile())
		},
		run: ringSendrecv,
		times: nsDurations(
			4009, 3083, 3166, 3266, 3366, 3450, 3550, 3803, 3803, 3833, 3916,
			4016, 4100, 4200, 4300, 4300,
		),
		hash: 0x6871302a46702680,
	},
	{
		// Integrity on with a corrupter: some transfers recover by
		// retransmitting, others exhaust the budget and deliver corrupt.
		name: "sendrecv-integrity",
		job: func(t *testing.T) *Job {
			j := newTestJob(t, 16)
			j.Fabric().SetIntegrity(fabric.Integrity{Enabled: true, MaxRetries: 2})
			j.Fabric().SetFaults(&flipCorrupter{seen: map[int64]int{}})
			return j
		},
		run: ringSendrecv,
		times: nsDurations(
			8575, 5815, 5848, 5866, 5866, 5899, 5917, 5917, 5950, 5968, 5968,
			6001, 6016, 6016, 6052, 8575,
		),
		hash: 0x96c8e0d914f7f34f,
	},
}

func nsDurations(ns ...int64) []time.Duration {
	d := make([]time.Duration, len(ns))
	for i, v := range ns {
		d[i] = time.Duration(v)
	}
	return d
}

// TestEagerSendVirtualTime pins the modeled completion time of every rank
// and the bytes received in three eager-send scenarios that the progress
// pins do not reach: contended pools with posted and unexpected messages
// at one instant, the staging penalty, and integrity retransmits.
func TestEagerSendVirtualTime(t *testing.T) {
	for _, row := range eagerRows {
		t.Run(row.name, func(t *testing.T) {
			j := row.job(t)
			times := make([]time.Duration, j.Size())
			got := make([][]byte, j.Size())
			err := j.Run(func(c *Comm) {
				got[c.Rank()] = row.run(c)
				times[c.Rank()] = c.Proc().Now()
			})
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			for _, b := range got {
				h.Write(b)
			}
			if fmt.Sprint(times) != fmt.Sprint(row.times) {
				t.Errorf("completions = %v, want %v", times, row.times)
			}
			if h.Sum64() != row.hash {
				t.Errorf("received bytes hash to %#x, want %#x", h.Sum64(), row.hash)
			}
		})
	}
}

// TestOrphanedEagerIsendCompletes is the eager counterpart of
// TestDeadlockDetectedOnOrphanedIsend: an eager send never waits on its
// receiver, so one that nobody receives still completes. Run returns nil,
// the sender's Wait returns, and the message waits in the receiver's
// unexpected queue.
func TestOrphanedEagerIsendCompletes(t *testing.T) {
	j := newTestJob(t, 2)
	waited := false
	err := j.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := c.Device().MustMalloc(64)
			c.Wait(c.Isend(buf, 8, Float64, 1, 0)) // rank 1 never receives
			waited = true
		}
	})
	if err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
	if !waited {
		t.Fatal("the orphaned eager Isend never completed")
	}
	if q := j.world.match[1].unexpected; len(q) != 1 || q[0].src != 0 || !q[0].eager {
		t.Fatalf("rank 1's unexpected queue = %v, want the one eager envelope from rank 0", q)
	}
}

// TestEagerSendsSpawnNoProgress pins that no eager send runs on a progress
// process, in either profile and with integrity on: a barrier, a small
// allreduce and a round of eager Isends, all of whose sends are eager,
// leave every rank's progress pool empty.
func TestEagerSendsSpawnNoProgress(t *testing.T) {
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
			err := j.Run(func(c *Comm) {
				n, r := c.Size(), c.Rank()
				a, b := c.Device().MustMalloc(1024), c.Device().MustMalloc(1024)
				c.Barrier()
				c.Allreduce(a, b, 16, Float64, OpSum)
				send := c.Isend(a, 64, Float64, (r+1)%n, 3)
				c.Recv(b, 64, Float64, (r+n-1)%n, 3)
				c.Wait(send)
			})
			if err != nil {
				t.Fatal(err)
			}
			for r, pool := range j.progress {
				if all, _ := pool.Workers(); all != 0 {
					t.Errorf("rank %d spawned %d progress processes; want 0", r, all)
				}
			}
		})
	}
}
