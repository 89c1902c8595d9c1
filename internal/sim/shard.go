package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"unsafe"
)

// Sharded is a partitioned discrete-event engine: N plain Kernels, each with
// its private clock, event heap, and dispatch loop, executing concurrently
// on their own OS threads inside conservative synchronization windows. A
// window's loop for shard i runs on a goroutine of its own and switches
// only among shard i's process coroutines.
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
// Code running on shard i sends to shard j with Inject: a timestamped
// record carrying two payload words by value and naming a long-lived
// Receiver, buffered in shard i's outbox (single-writer: only the process
// or callback running on shard i appends). At the window barrier the
// coordinator merges all outboxes, sorts by (timestamp, sender shard,
// sender issue order), and schedules each injection on its destination
// kernel as a pooled delivery event taken from the destination's free
// list. The delivery runs on the destination shard, gives its slot back
// to that free list, and calls the receiver's Deliver with the payload.
// Sending a message therefore allocates nothing once the free lists are
// warm. The sort makes delivery order independent of wall-clock
// interleaving; models must additionally keep same-timestamp injections
// to one destination commutative (or single-source), because two
// injections carrying equal timestamps from different senders may be
// enqueued in either relative order versus a different shard count's run.
//
// A delivery slot has one owner at a time. The coordinator takes it from
// the free list during flush, between windows. From then until its event
// runs it sits in the destination's event queue, and the destination's
// window returns it to the free list when it runs. The window barrier
// orders the flush before and after every window, so no two threads ever
// touch one free list at once.
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

	// lanes[i] is shard i's message state (see lane).
	lanes []lane

	// Per-window scratch, reused across windows: the merged injections
	// (flush) and the shards with work below the horizon (Run).
	batch  []injection
	active []*Kernel

	running bool
}

// lane is one shard's message state. Shards that inject at once write
// their own lanes, so each lane is padded to a multiple of 128 bytes (two
// cache lines, which some CPUs fetch as a pair, as sync.Pool pads its
// per-P pools) and no two shards' lanes share a line.
type lane struct {
	laneState
	_ [128 - unsafe.Sizeof(laneState{})%128]byte
}

type laneState struct {
	// outbox holds the injections the shard issued during the current
	// window, seq their count so far. Written only by what runs on the
	// shard, drained only by the coordinator between windows (the
	// WaitGroup barrier orders the two).
	outbox []injection
	seq    uint64
	// free holds the shard's idle delivery slots. flush pops them and the
	// shard's deliveries push them back (see "Cross-shard messages").
	free []*delivery
}

// Receiver consumes cross-shard messages on their destination shard.
// Deliver runs as an event callback on the destination kernel, at the
// injection's timestamp, so it may touch only that shard's state. A
// receiver is long-lived (one per link or mailbox, not one per message):
// the payload travels by value in the two words.
type Receiver interface {
	Deliver(a, b uint64)
}

// injection is one buffered cross-shard message.
type injection struct {
	at   Time
	from int
	seq  uint64 // sender-local issue order, tie-break after (at, from)
	to   int
	r    Receiver
	a, b uint64
}

// delivery is a pooled destination-side event for one injection. Its run
// method value is bound once, when the slot is made, so scheduling a
// delivery allocates nothing.
type delivery struct {
	free *[]*delivery // the destination shard's free list
	r    Receiver
	a, b uint64
	run  func()
}

// deliver is the delivery's event callback on the destination shard: it
// returns the slot to the free list, then hands the payload to the
// receiver.
func (d *delivery) deliver() {
	r, a, b := d.r, d.a, d.b
	d.r = nil
	*d.free = append(*d.free, d)
	r.Deliver(a, b)
}

// schedule files r.Deliver(a, b) at virtual time at on shard to, through a
// delivery slot from that shard's free list. Only the coordinator calls
// it: during flush, or before Run and after it returns.
func (s *Sharded) schedule(to int, at Time, r Receiver, a, b uint64) {
	free := &s.lanes[to].free
	var d *delivery
	if n := len(*free); n > 0 {
		d = (*free)[n-1]
		*free = (*free)[:n-1]
	} else {
		d = &delivery{free: free}
		d.run = d.deliver
	}
	d.r, d.a, d.b = r, a, b
	s.shards[to].schedule(at, d.run)
}

// NewSharded creates a partitioned engine with n fresh kernels. lookahead is
// the conservative synchronization horizon: no cross-shard injection may be
// timestamped earlier than sender-now + lookahead. A lookahead of zero (or
// negative) selects the barrier-advance fallback.
func NewSharded(n int, lookahead Time) *Sharded {
	if n < 1 {
		panic("sim: NewSharded needs at least one shard")
	}
	s := &Sharded{lookahead: lookahead, lanes: make([]lane, n)}
	for i := 0; i < n; i++ {
		s.shards = append(s.shards, NewKernel())
	}
	return s
}

// Shards reports the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// Kernel returns shard i's kernel, for spawning processes and building
// shard-local worlds.
func (s *Sharded) Kernel(i int) *Kernel { return s.shards[i] }

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

// Inject sends the payload (a, b) to receiver r on shard to, delivered at
// virtual time at, issued by shard from: r.Deliver(a, b) runs on shard to
// at that instant. It must be called from a process or event callback
// running on shard from. In conservative mode at must be at least
// sender-now + lookahead (physically: a cross-shard hop costs at least
// the minimum link latency); violating that is a model bug (the message
// could land in the destination's past) and panics.
//
// Before the engine runs, Inject schedules directly — setup code may seed
// any shard at any time.
func (s *Sharded) Inject(from, to int, at Time, r Receiver, a, b uint64) {
	if to < 0 || to >= len(s.shards) || from < 0 || from >= len(s.shards) {
		panic("sim: Inject shard index out of range")
	}
	if !s.running {
		s.schedule(to, at, r, a, b)
		return
	}
	now := s.shards[from].now
	if s.lookahead > 0 && at < now+s.lookahead {
		panic(fmt.Sprintf("sim: Inject at t=%v violates lookahead (sender now %v + %v)", at, now, s.lookahead))
	}
	if at < now {
		panic(fmt.Sprintf("sim: Inject at t=%v is in the sender's past (now %v)", at, now))
	}
	l := &s.lanes[from]
	l.outbox = append(l.outbox, injection{at: at, from: from, seq: l.seq, to: to, r: r, a: a, b: b})
	l.seq++
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
// windows, when no shard is dispatching. The merge slice is reused, and
// both it and the outboxes drop their receivers once scheduled, so spare
// capacity keeps no receiver alive.
func (s *Sharded) flush() {
	batch := s.batch[:0]
	for i := range s.lanes {
		l := &s.lanes[i]
		batch = append(batch, l.outbox...)
		clear(l.outbox)
		l.outbox = l.outbox[:0]
	}
	slices.SortFunc(batch, func(x, y injection) int {
		if c := cmp.Compare(x.at, y.at); c != 0 {
			return c
		}
		if c := cmp.Compare(x.from, y.from); c != 0 {
			return c
		}
		return cmp.Compare(x.seq, y.seq)
	})
	for _, inj := range batch {
		s.schedule(inj.to, inj.at, inj.r, inj.a, inj.b)
	}
	clear(batch)
	s.batch = batch[:0]
}

// runConcurrently runs one window on every active shard, each on its own
// goroutine. A shard's panic (see Kernel.Run) is re-raised on the calling
// goroutine once every shard has finished the window, so it surfaces from
// Sharded.Run instead of killing the program.
func runConcurrently(active []*Kernel, horizon Time) {
	var wg sync.WaitGroup
	failed := make([]any, len(active))
	for i, k := range active {
		wg.Add(1)
		go func(i int, k *Kernel) {
			defer wg.Done()
			defer func() { failed[i] = recover() }()
			k.runWindow(horizon)
		}(i, k)
	}
	wg.Wait()
	for _, r := range failed {
		if r != nil {
			panic(r)
		}
	}
}

// Close tears down every shard once Run has returned (see Kernel.Close).
// All shards unwind before any pending event or buffered injection is
// dropped, so deferred calls that inject across shards are discarded too.
// Scheduled deliveries go with their kernels' events, and the outboxes
// and delivery free lists are released.
func (s *Sharded) Close() {
	for _, k := range s.shards {
		k.unwindAll()
	}
	for i, k := range s.shards {
		k.dropEvents()
		s.lanes[i].outbox, s.lanes[i].free = nil, nil
	}
}

// Run executes the window loop until every shard drains. It returns a merged *DeadlockError if processes remain blocked
// engine-wide with no pending events anywhere (including a process on one
// shard waiting forever for an injection that no other shard will send).
func (s *Sharded) Run() error {
	if s.running {
		return fmt.Errorf("sim: sharded engine already running")
	}
	s.running = true
	defer func() { s.running = false }()

	for {
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
		active := s.active[:0]
		for _, k := range s.shards {
			if at, has := k.nextAt(); has && at < horizon {
				active = append(active, k)
			}
		}
		s.active = active
		switch len(active) {
		case 0:
			// Cannot happen: minNext found t < horizon on some shard.
			panic("sim: window with no active shard")
		case 1:
			// Single busy shard (no other has an event below the horizon):
			// run it on the coordinator goroutine, no hand-off.
			active[0].runWindow(horizon)
		default:
			runConcurrently(active, horizon)
		}
		s.flush()
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
