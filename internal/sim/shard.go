package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Sharded is a partitioned discrete-event engine: N plain Kernels, each with
// its private clock, event heap, and dispatch loop, executing concurrently
// on their own OS threads inside conservative synchronization windows.
// Shard 0 runs on the goroutine that calls Run; every other shard has a
// resident worker goroutine, started at the first Run, that blocks between
// Runs and exits in Close. A shard's window switches only among its own
// process coroutines.
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
// # The window protocol
//
// Each window is two phases, each ended by a barrier. In the run phase
// every shard dispatches its events below the horizon. In the merge phase
// every shard merges the injections sent to it during the window into its
// own kernel and publishes its next event time; the coordinator (the Run
// goroutine) takes the minimum and releases the next window. The barriers
// spin briefly and then yield the thread (runtime.Gosched), so a shard
// waiting for another on the same thread hands it over. A window spawns
// no goroutine and allocates nothing.
//
// # Cross-shard messages
//
// Code running on shard i sends to shard j with Inject: a timestamped
// record carrying two payload words by value and naming a long-lived
// Receiver, buffered in shard i's outbox for shard j (single-writer: only
// the process or callback running on shard i appends). In the merge phase
// shard j gathers its outboxes from every shard, sorts them by
// (timestamp, sender shard, sender issue order), and schedules each
// injection on its kernel as a pooled delivery event taken from its own
// free list. The delivery gives its slot back to that free list when it
// runs and calls the receiver's Deliver with the payload. Sending a
// message therefore allocates nothing once the free lists are warm. The
// sort makes delivery order independent of wall-clock interleaving; models
// must additionally keep same-timestamp injections to one destination
// commutative (or single-source), because two injections carrying equal
// timestamps from different senders may be enqueued in either relative
// order versus a different shard count's run.
//
// A delivery slot has one owner at a time: the destination's merge, which
// takes it from the free list; the destination's event queue, until its
// event runs; and the destination's window, which returns it to the free
// list. During Run only the destination's thread touches its free list.
// Before the first Run and after each returns, the workers are parked and
// the caller's goroutine owns every shard: an Inject then schedules
// directly.
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

	// The window protocol. The coordinator writes horizon and stop, then
	// bumps phase to release the workers into the next phase; a worker
	// adds to arrived once it has finished the phase. The atomics order
	// each phase's writes before the next phase's reads.
	horizon Time
	stop    bool // the released phase parks the workers instead
	phase   atomic.Uint64
	arrived atomic.Int64
	lost    atomic.Int64 // workers a runtime.Goexit ended, counted as arrived from then on
	waiting bool         // a phase is released and its arrivals not yet awaited
	serving bool         // the workers are in the window loop

	workers sync.WaitGroup // the resident workers, done when they exit
	running bool
}

// lane is one shard's message state. Shards that run at once write their
// own lanes, so each lane is padded to a multiple of 128 bytes (two cache
// lines, which some CPUs fetch as a pair, as sync.Pool pads its per-P
// pools) and no two shards' lanes share a line.
type lane struct {
	laneState
	_ [128 - unsafe.Sizeof(laneState{})%128]byte
}

type laneState struct {
	// out[j] holds the injections the shard issued to shard j during the
	// current window, seq their count so far. Written only by what runs on
	// the shard, drained only by shard j in the merge phase.
	out [][]injection
	seq uint64

	// Destination side, touched only by this shard's thread during Run:
	// its idle delivery slots (see "Cross-shard messages"), the merge's
	// scratch, and the next event time the merge publishes.
	free    []*delivery
	batch   []injection
	next    Time
	pending bool

	// failed is the panic this shard's window ended with, if any.
	failed any
	// wake starts the shard's worker on a Run; Close closes it. Shard 0
	// has none: the Run goroutine runs it.
	wake chan struct{}
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
// delivery slot from that shard's free list. Only the owner of shard to
// calls it: its merge during Run, or the caller's goroutine outside Run.
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
// negative) selects the barrier-advance fallback. An engine with more than
// one shard holds worker goroutines from its first Run until Close.
func NewSharded(n int, lookahead Time) *Sharded {
	if n < 1 {
		panic("sim: NewSharded needs at least one shard")
	}
	s := &Sharded{lookahead: lookahead, lanes: make([]lane, n)}
	for i := 0; i < n; i++ {
		s.shards = append(s.shards, NewKernel())
		s.lanes[i].out = make([][]injection, n)
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
	l.out[to] = append(l.out[to], injection{at: at, from: from, seq: l.seq, r: r, a: a, b: b})
	l.seq++
}

// merge schedules the injections sent to shard j during the window, in
// (timestamp, sender shard, sender issue order), and publishes the shard's
// next event time. It runs on shard j's thread in the merge phase. The
// scratch and the outboxes drop their receivers once scheduled, so spare
// capacity keeps no receiver alive.
func (s *Sharded) merge(j int) {
	l := &s.lanes[j]
	batch := l.batch[:0]
	for i := range s.lanes {
		o := s.lanes[i].out[j]
		batch = append(batch, o...)
		clear(o)
		s.lanes[i].out[j] = o[:0]
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
		s.schedule(j, inj.at, inj.r, inj.a, inj.b)
	}
	clear(batch)
	l.batch = batch[:0]
	l.next, l.pending = s.shards[j].nextAt()
}

// runShard runs shard i's window up to the current horizon. A panic (see
// Kernel.Run), or a runtime.Goexit, is recorded in the lane for the
// coordinator to re-raise once every shard has finished the window, so it
// surfaces from Run instead of killing the program.
func (s *Sharded) runShard(i int) {
	done := false
	defer func() {
		if !done {
			r := recover()
			if r == nil {
				r = fmt.Sprintf("sim: shard %d's window called runtime.Goexit", i)
			}
			s.lanes[i].failed = r
		}
	}()
	s.shards[i].runWindow(s.horizon)
	done = true
}

// spins is how many times a barrier polls before each yield.
const spins = 64

// release starts the next phase on every worker.
func (s *Sharded) release() {
	s.waiting = true
	s.phase.Add(1)
}

// await returns once every worker has finished the released phase.
func (s *Sharded) await() {
	want := int64(len(s.shards) - 1)
	for i := 1; s.arrived.Load()+s.lost.Load() < want; i++ {
		if i%spins == 0 {
			runtime.Gosched()
		}
	}
	s.arrived.Store(0)
	s.waiting = false
}

// park ends the window loop on every worker: each goes back to wait for
// the next Run or for Close. It returns once every worker has left the
// loop, so the next Run may reset the protocol.
func (s *Sharded) park() {
	if s.waiting {
		s.await()
	}
	for i := range s.lanes {
		s.lanes[i].failed = nil
	}
	s.stop = true
	s.release()
	s.await()
	s.serving = false
}

// work is shard i's resident worker: it takes part in the windows of each
// Run, a run phase and then a merge phase per window, until Close closes
// its wake channel. seen counts the releases it has waited for. A
// runtime.Goexit in its window ends the worker; it counts itself lost on
// the way out, so the coordinator re-raises the failure runShard recorded
// instead of waiting for the worker forever.
func (s *Sharded) work(i int) {
	defer s.workers.Done()
	exited := false
	defer func() {
		if !exited {
			s.lost.Add(1)
		}
	}()
	var seen uint64
	for range s.lanes[i].wake {
		for merging := false; ; merging = !merging {
			seen++
			for n := 1; s.phase.Load() < seen; n++ {
				if n%spins == 0 {
					runtime.Gosched()
				}
			}
			if s.stop {
				s.arrived.Add(1)
				break
			}
			if merging {
				s.merge(i)
			} else {
				s.runShard(i)
			}
			s.arrived.Add(1)
		}
	}
	exited = true
}

// minNext returns the earliest pending event time across all shards, as
// their merges published it.
func (s *Sharded) minNext() (Time, bool) {
	var t Time
	ok := false
	for i := range s.lanes {
		if l := &s.lanes[i]; l.pending && (!ok || l.next < t) {
			t, ok = l.next, true
		}
	}
	return t, ok
}

// Close tears down every shard once Run has returned (see Kernel.Close).
// All shards unwind before any pending event or buffered injection is
// dropped, so deferred calls that inject across shards are discarded too.
// Scheduled deliveries go with their kernels' events, the outboxes and
// delivery free lists are released, and the workers exit.
func (s *Sharded) Close() {
	for _, k := range s.shards {
		k.unwindAll()
	}
	for i, k := range s.shards {
		k.dropEvents()
		l := &s.lanes[i]
		l.out, l.free, l.batch = nil, nil, nil
		if l.wake != nil {
			close(l.wake)
			l.wake = nil
		}
	}
	s.workers.Wait()
}

// Run executes the window loop until every shard drains. It returns a
// merged *DeadlockError if processes remain blocked engine-wide with no
// pending events anywhere (including a process on one shard waiting
// forever for an injection that no other shard will send). A panic in a
// shard's window is re-raised here once every shard has finished the
// window, and no merge follows it.
func (s *Sharded) Run() error {
	if s.running {
		return fmt.Errorf("sim: sharded engine already running")
	}
	if s.lost.Load() > 0 {
		return fmt.Errorf("sim: a shard's worker ended in runtime.Goexit; the engine can only be closed")
	}
	s.running = true
	defer func() {
		if s.serving {
			s.park() // a Goexit on this goroutine: stop the workers first
		}
		s.running = false
	}()

	// Between Runs this goroutine owns every shard: seed the published
	// next times from the kernels, then start the workers.
	for i, k := range s.shards {
		s.lanes[i].next, s.lanes[i].pending = k.nextAt()
	}
	s.stop, s.serving = false, true
	for i := 1; i < len(s.lanes); i++ {
		l := &s.lanes[i]
		if l.wake == nil {
			l.wake = make(chan struct{})
			s.workers.Add(1)
			go s.work(i)
		}
		l.wake <- struct{}{}
	}
	for {
		t, ok := s.minNext()
		if !ok {
			break
		}
		s.horizon = t + s.lookahead
		if s.lookahead <= 0 {
			s.horizon = t + 1 // barrier-advance fallback: one-tick windows
		}
		s.release()
		s.runShard(0)
		s.await()
		for i := range s.lanes {
			if r := s.lanes[i].failed; r != nil {
				s.park()
				panic(r)
			}
		}
		s.release()
		s.merge(0)
		s.await()
	}
	s.park()

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
