package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The kernel files events due at the current instant in a FIFO and later
// ones in a heap, and merges the two. These tests check the merge against
// the definition: every activation runs in (time, seq) order, where seq is
// the kernel's schedule counter at the moment the event was scheduled.

// orderEntry is one activation: when it is due, the seq it was scheduled
// with, and the label its process or callback logs when it runs.
type orderEntry struct {
	at    Time
	seq   uint64
	label int
}

// orderModel drives one kernel through a random mix of Sleep(0), Sleep(d),
// Event.Fire wake-ups, After callbacks and Spawns at the current instant.
// Every scheduling call first records the entry it expects (reading the
// kernel's next seq), and every activation logs its label when it runs.
type orderModel struct {
	k       *Kernel
	rng     *rand.Rand
	want    []orderEntry
	got     []orderEntry
	events  []*Event
	pending map[*Proc]int // label of a parked waiter's wake-up
	labels  int
	spawns  int
}

// orderEnd is when a cleanup callback fires every event of the pool, so
// no waiter is stranded; processes do not wait after it.
const orderEnd Time = 1000

func newOrderModel(k *Kernel, seed int64) *orderModel {
	m := &orderModel{k: k, rng: rand.New(rand.NewSource(seed)), pending: map[*Proc]int{}}
	for i := 0; i < 3; i++ {
		m.events = append(m.events, NewEvent(k))
	}
	for i, n := 0, 2+m.rng.Intn(4); i < n; i++ {
		m.spawn(20 + m.rng.Intn(20))
	}
	m.after(orderEnd, func() {
		for i := range m.events {
			m.fire(i)
		}
	})
	return m
}

// expect records an activation due at at, scheduled with the kernel's next
// seq, and returns its label.
func (m *orderModel) expect(at Time, seq uint64) int {
	m.labels++
	m.want = append(m.want, orderEntry{at: at, seq: seq, label: m.labels})
	return m.labels
}

func (m *orderModel) log(label int) {
	m.got = append(m.got, orderEntry{at: m.k.now, label: label})
}

func (m *orderModel) spawn(budget int) {
	label := m.expect(m.k.now, m.k.seq)
	m.k.Spawn(fmt.Sprintf("p%d", label), func(p *Proc) {
		m.log(label)
		m.run(p, budget)
	})
}

func (m *orderModel) after(d Time, fn func()) {
	label := m.expect(m.k.now+d, m.k.seq)
	m.k.After(d, func() {
		m.log(label)
		fn()
	})
}

// fire wakes every waiter of pool event i, one seq each in wait order, and
// replaces the event with a fresh one.
func (m *orderModel) fire(i int) {
	e := m.events[i]
	for j, w := range e.waiters {
		m.pending[w] = m.expect(m.k.now, m.k.seq+uint64(j))
	}
	e.Fire()
	m.events[i] = NewEvent(m.k)
}

func (m *orderModel) run(p *Proc, budget int) {
	for ; budget > 0; budget-- {
		switch m.rng.Intn(6) {
		case 0, 1:
			// Sleep(0) and short sleeps land on shared instants often.
			d := Time(m.rng.Intn(4))
			label := m.expect(m.k.now+d, m.k.seq)
			p.Sleep(d)
			m.log(label)
		case 2:
			if m.k.now >= orderEnd {
				continue
			}
			e := m.events[m.rng.Intn(len(m.events))]
			e.Wait(p)
			m.log(m.pending[p])
		case 3:
			m.fire(m.rng.Intn(len(m.events)))
		case 4:
			i := m.rng.Intn(len(m.events))
			m.after(Time(m.rng.Intn(3)), func() {
				if m.rng.Intn(2) == 0 {
					m.fire(i)
				}
			})
		case 5:
			if m.spawns < 8 {
				m.spawns++
				m.spawn(budget / 2)
			}
		}
	}
}

// check compares the activation trace with the expected entries sorted by
// (time, seq).
func (m *orderModel) check(t *testing.T, name string) {
	t.Helper()
	want := slices.Clone(m.want)
	slices.SortFunc(want, func(x, y orderEntry) int {
		if c := cmp.Compare(x.at, y.at); c != 0 {
			return c
		}
		return cmp.Compare(x.seq, y.seq)
	})
	if len(m.got) != len(want) {
		t.Fatalf("%s: %d activations ran, %d scheduled", name, len(m.got), len(want))
	}
	for i, g := range m.got {
		if w := want[i]; g.at != w.at || g.label != w.label {
			t.Fatalf("%s: activation %d is label %d at %v, want label %d at %v (seq %d)",
				name, i, g.label, g.at, w.label, w.at, w.seq)
		}
	}
}

func TestEventOrderKernel(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		k := NewKernel()
		m := newOrderModel(k, seed)
		if err := k.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m.check(t, fmt.Sprintf("seed %d", seed))
		k.Close()
	}
}

// Each shard runs a model of its own; the windows (lookahead 2, and the
// one-tick barrier-advance windows of lookahead 0) bound every shard's
// dispatch, which must not reorder anything.
func TestEventOrderSharded(t *testing.T) {
	for _, lookahead := range []Time{2, 0} {
		for seed := int64(1); seed <= 50; seed++ {
			s := NewSharded(3, lookahead)
			models := make([]*orderModel, s.Shards())
			for i := range models {
				models[i] = newOrderModel(s.Kernel(i), seed*10+int64(i))
			}
			if err := s.Run(); err != nil {
				t.Fatalf("lookahead %v seed %d: %v", lookahead, seed, err)
			}
			for i, m := range models {
				m.check(t, fmt.Sprintf("lookahead %v seed %d shard %d", lookahead, seed, i))
			}
			s.Close()
		}
	}
}
