package sim

import (
	"fmt"
	"sort"
	"sync"
)

// Sharded is a partitioned discrete-event engine: N plain Kernels, each with
// its private clock, event heap, and scheduler token, executing concurrently
// on their own OS threads inside conservative synchronization windows.
//
// # Conservative lookahead
//
// The engine advances in windows [T, T+L) where T is the earliest pending
// event across all shards and L is the lookahead: the minimum virtual latency
// of any cross-shard interaction (for node-aligned partitions of an α–β
// fabric, the inter-node link α). Within a window every shard runs
// independently — no shard can receive a cross-shard message timestamped
// before T+L, so events below the horizon are safe to execute out of
// wall-clock order. When L degenerates to zero (a topology with zero-latency
// cross-shard edges), the engine falls back to barrier-advance: windows of a
// single virtual nanosecond, correct but with no intra-window parallelism.
//
// # Cross-shard messages
//
// Code running on shard i sends to shard j with Inject/Send: a timestamped
// event injection buffered in shard i's outbox (single-writer: only the
// goroutine holding shard i's scheduler token appends). At the window
// barrier the coordinator merges all outboxes, sorts by (timestamp, sender
// shard, sender issue order), and schedules each injection on its
// destination kernel. The sort makes delivery order independent of
// wall-clock interleaving; models must additionally keep same-timestamp
// injections to one destination commutative (or single-source), because two
// injections carrying equal timestamps from different senders may be
// enqueued in either relative order versus a different shard count's run.
//
// # Determinism
//
// Each shard is a full deterministic Kernel; all mutable model state must be
// shard-local (touched only by processes of one shard) or handed off through
// injections. Under that discipline the virtual-time trace is bit-identical
// for any shard count, which the ring and scale tests assert.
type Sharded struct {
	shards    []*Kernel
	lookahead Time

	// outbox[i] holds injections issued by shard i during the current
	// window. Written only by shard i's token holder, drained only by the
	// coordinator between windows (the WaitGroup barrier orders the two).
	outbox [][]injection
	injSeq []uint64

	running bool
}

// injection is one buffered cross-shard event.
type injection struct {
	at   Time
	from int
	seq  uint64 // sender-local issue order, tie-break after (at, from)
	to   int
	fn   func()
}

// NewSharded creates a partitioned engine with n fresh kernels. lookahead is
// the conservative synchronization horizon: no cross-shard injection may be
// timestamped earlier than sender-now + lookahead. A lookahead of zero (or
// negative) selects the barrier-advance fallback.
func NewSharded(n int, lookahead Time) *Sharded {
	if n < 1 {
		panic("sim: NewSharded needs at least one shard")
	}
	s := &Sharded{
		lookahead: lookahead,
		outbox:    make([][]injection, n),
		injSeq:    make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		k := NewKernel()
		k.shard = i
		s.shards = append(s.shards, k)
	}
	return s
}

// Shards reports the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// Kernel returns shard i's kernel, for spawning processes and building
// shard-local worlds.
func (s *Sharded) Kernel(i int) *Kernel { return s.shards[i] }

// Lookahead reports the conservative horizon the engine was built with.
func (s *Sharded) Lookahead() Time { return s.lookahead }

// Now reports the engine clock: the maximum shard clock (the completion time
// of the last event executed anywhere).
func (s *Sharded) Now() Time {
	var t Time
	for _, k := range s.shards {
		if k.now > t {
			t = k.now
		}
	}
	return t
}

// Inject schedules fn at virtual time at on shard to, issued by shard from.
// It must be called while holding shard from's scheduler token (i.e. from a
// process or event callback running on that shard). In conservative mode at
// must be at least sender-now + lookahead; violating that is a model bug
// (the event could land in the destination's past) and panics.
//
// Before the engine runs, Inject schedules directly — setup code may seed
// any shard at any time.
func (s *Sharded) Inject(from, to int, at Time, fn func()) {
	if to < 0 || to >= len(s.shards) || from < 0 || from >= len(s.shards) {
		panic("sim: Inject shard index out of range")
	}
	if !s.running {
		s.shards[to].schedule(at, fn)
		return
	}
	now := s.shards[from].now
	if s.lookahead > 0 && at < now+s.lookahead {
		panic(fmt.Sprintf("sim: Inject at t=%v violates lookahead (sender now %v + %v)", at, now, s.lookahead))
	}
	if at < now {
		panic(fmt.Sprintf("sim: Inject at t=%v is in the sender's past (now %v)", at, now))
	}
	s.outbox[from] = append(s.outbox[from], injection{at: at, from: from, seq: s.injSeq[from], to: to, fn: fn})
	s.injSeq[from]++
}

// Send is the process-level convenience over Inject: deliver fn on shard to
// after delay of virtual time from p's current instant. delay must be at
// least the lookahead (physically: a cross-shard hop costs at least the
// minimum link latency).
func (s *Sharded) Send(p *Proc, to int, delay Time, fn func()) {
	s.Inject(p.k.shard, to, p.Now()+delay, fn)
}

// minNext returns the earliest pending event time across all shards.
func (s *Sharded) minNext() (Time, bool) {
	var t Time
	ok := false
	for _, k := range s.shards {
		if at, has := k.nextAt(); has && (!ok || at < t) {
			t, ok = at, true
		}
	}
	return t, ok
}

// flush delivers all buffered injections in deterministic order:
// (timestamp, sender shard, sender issue order). Called only between
// windows, when no shard is dispatching.
func (s *Sharded) flush() {
	var batch []injection
	for i := range s.outbox {
		batch = append(batch, s.outbox[i]...)
		s.outbox[i] = s.outbox[i][:0]
	}
	if len(batch) == 0 {
		return
	}
	sort.Slice(batch, func(a, b int) bool {
		x, y := &batch[a], &batch[b]
		if x.at != y.at {
			return x.at < y.at
		}
		if x.from != y.from {
			return x.from < y.from
		}
		return x.seq < y.seq
	})
	for _, inj := range batch {
		s.shards[inj.to].schedule(inj.at, inj.fn)
	}
}

func (s *Sharded) stopped() bool {
	for _, k := range s.shards {
		if k.stopped {
			return true
		}
	}
	return false
}

// Close tears down every shard once Run has returned (see Kernel.Close).
// All shards unwind before any pending event or buffered injection is
// dropped, so deferred calls that inject across shards are discarded too.
func (s *Sharded) Close() {
	for _, k := range s.shards {
		k.unwindAll()
	}
	for i, k := range s.shards {
		k.queue = nil
		s.outbox[i] = nil
	}
}

// Run executes the window loop until every shard drains or any shard is
// stopped. It returns a merged *DeadlockError if processes remain blocked
// engine-wide with no pending events anywhere (including a process on one
// shard waiting forever for an injection that no other shard will send).
func (s *Sharded) Run() error {
	if s.running {
		return fmt.Errorf("sim: sharded engine already running")
	}
	s.running = true
	defer func() { s.running = false }()

	for !s.stopped() {
		t, ok := s.minNext()
		if !ok {
			break
		}
		horizon := t + s.lookahead
		if s.lookahead <= 0 {
			horizon = t + 1 // barrier-advance fallback: one-tick windows
		}
		// Collect shards with work below the horizon; idle shards (empty
		// queue, possibly procs parked awaiting injections) cost nothing.
		var active []*Kernel
		for _, k := range s.shards {
			if at, has := k.nextAt(); has && at < horizon {
				active = append(active, k)
			}
		}
		switch len(active) {
		case 0:
			// Cannot happen: minNext found t < horizon on some shard.
			panic("sim: window with no active shard")
		case 1:
			// Single busy shard (no other has an event below the horizon):
			// run it on the coordinator goroutine, no hand-off.
			active[0].runWindow(horizon)
		default:
			var wg sync.WaitGroup
			for _, k := range active {
				wg.Add(1)
				go func(k *Kernel) {
					defer wg.Done()
					k.runWindow(horizon)
				}(k)
			}
			wg.Wait()
		}
		s.flush()
	}
	if s.stopped() {
		return nil
	}
	alive := 0
	for _, k := range s.shards {
		alive += k.alive
	}
	if alive > 0 {
		var blocked []string
		for _, k := range s.shards {
			blocked = append(blocked, k.blockedNames()...)
		}
		sort.Strings(blocked)
		return &DeadlockError{Now: s.Now(), Blocked: blocked}
	}
	return nil
}
