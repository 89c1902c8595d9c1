package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// poolJobSpec is one generated job: sleeps to run in order and, optionally,
// a nested job it posts before its second step and may wait for.
type poolJobSpec struct {
	id      int
	sleeps  []time.Duration
	sub     *poolJobSpec
	waitSub bool
}

// poolAction is one step of a generated driver: post a job, sleep, or
// wait for every job the driver has posted so far.
type poolAction struct {
	post  *poolJobSpec
	sleep time.Duration
	wait  bool
}

// genPoolScenario draws a few drivers and their actions from seed. Sleeps
// are a few ticks at most, so many activations share an instant and their
// (time, seq) order is what the trace pins.
func genPoolScenario(seed int64) [][]poolAction {
	rng := rand.New(rand.NewSource(seed))
	ids := 0
	sleep := func() time.Duration { return time.Duration(rng.Intn(3)) * time.Nanosecond }
	var job func(depth int) *poolJobSpec
	job = func(depth int) *poolJobSpec {
		j := &poolJobSpec{id: ids}
		ids++
		for i := 1 + rng.Intn(3); i > 0; i-- {
			j.sleeps = append(j.sleeps, sleep())
		}
		if depth < 2 && len(j.sleeps) > 1 && rng.Intn(3) == 0 {
			j.sub, j.waitSub = job(depth+1), rng.Intn(2) == 0
		}
		return j
	}
	drivers := make([][]poolAction, 1+rng.Intn(3))
	for d := range drivers {
		for i := 4 + rng.Intn(10); i > 0; i-- {
			switch rng.Intn(4) {
			case 0, 1:
				drivers[d] = append(drivers[d], poolAction{post: job(0)})
			case 2:
				drivers[d] = append(drivers[d], poolAction{sleep: sleep() * time.Duration(1+rng.Intn(4))})
			default:
				drivers[d] = append(drivers[d], poolAction{wait: true})
			}
		}
	}
	return drivers
}

// runPoolScenario runs the drivers and returns the activation trace and
// the number of processes the run created besides the drivers. pooled
// runs every job through one Pool; otherwise each job is a process of its
// own.
func runPoolScenario(t *testing.T, drivers [][]poolAction, pooled bool) (trace []string, procs int) {
	t.Helper()
	k := NewKernel()
	defer k.Close()
	done := map[*poolJobSpec]*Event{}
	logf := func(p *Proc, format string, args ...any) {
		trace = append(trace, fmt.Sprintf("%v ", p.Now())+fmt.Sprintf(format, args...))
	}
	var post func(j *poolJobSpec)
	run := func(p *Proc, j *poolJobSpec) {
		for i, d := range j.sleeps {
			logf(p, "job%d step%d", j.id, i)
			if i == 1 && j.sub != nil {
				post(j.sub)
				if j.waitSub {
					done[j.sub].Wait(p)
					logf(p, "job%d joined job%d", j.id, j.sub.id)
				}
			}
			p.Sleep(d)
		}
		logf(p, "job%d done", j.id)
		done[j].Fire()
	}
	pool := NewPool("worker", run)
	post = func(j *poolJobSpec) {
		done[j] = NewEvent(k)
		if pooled {
			pool.Post(k, j)
		} else {
			k.Spawn(fmt.Sprintf("job%d", j.id), func(p *Proc) { run(p, j) })
		}
	}
	for d, acts := range drivers {
		d, acts := d, acts
		k.Spawn(fmt.Sprintf("driver%d", d), func(p *Proc) {
			var posted []*poolJobSpec
			for i, a := range acts {
				logf(p, "driver%d action%d", d, i)
				switch {
				case a.post != nil:
					post(a.post)
					posted = append(posted, a.post)
				case a.wait:
					for _, j := range posted {
						done[j].Wait(p)
					}
				default:
					p.Sleep(a.sleep)
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return trace, k.nextPID - len(drivers)
}

// TestPoolMatchesSpawnPerJob is the pool's differential test: seeded mixes
// of posts, sleeps, waits and nested posts produce the same activation
// trace — every step at the same virtual time and in the same order —
// whether each job runs on a pool worker or on a process spawned for it.
func TestPoolMatchesSpawnPerJob(t *testing.T) {
	var jobs, workers int
	for seed := int64(1); seed <= 200; seed++ {
		drivers := genPoolScenario(seed)
		want, spawned := runPoolScenario(t, drivers, false)
		got, pooled := runPoolScenario(t, drivers, true)
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("seed %d: trace diverges at line %d: pool %q, spawn per job %q", seed, i, got[i], want[i])
				}
			}
			t.Fatalf("seed %d: pool trace has %d lines, spawn per job %d", seed, len(got), len(want))
		}
		jobs += spawned
		workers += pooled
	}
	if workers*3 > jobs*2 {
		t.Fatalf("the pool spawned %d workers for %d jobs; a third or more should reuse a worker", workers, jobs)
	}
}

// TestPoolBusyWorkerDeadlock pins the busy-is-live rule: a job that blocks
// forever is a reported deadlock naming its worker, while the idle worker
// beside it is not.
func TestPoolBusyWorkerDeadlock(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	never := NewEvent(k)
	pool := NewPool("w", func(p *Proc, ev *Event) { ev.Wait(p) })
	k.Spawn("main", func(p *Proc) {
		ready := NewEvent(k)
		ready.Fire()
		pool.Post(k, ready) // w0 runs it and goes idle
		p.Sleep(time.Microsecond)
		pool.Post(k, never) // takes w0 again
		pool.Post(k, ready) // w1
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if want := []string{"w0(event)"}; !reflect.DeepEqual(de.Blocked, want) {
		t.Fatalf("blocked = %v, want %v", de.Blocked, want)
	}
	if all, idle := pool.Workers(); all != 2 || idle != 1 {
		t.Fatalf("workers = %d, %d idle; want 2, 1 idle", all, idle)
	}
}

// TestPoolIdleWorkersEndRunAndClose pins the idle side: workers parked
// between jobs let Run return nil, and Close unwinds them, busy ones
// included, leaving no goroutine behind.
func TestPoolIdleWorkersEndRunAndClose(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	var ran int
	pool := NewPool("w", func(p *Proc, d time.Duration) {
		p.Sleep(d)
		ran++
	})
	k.Spawn("main", func(p *Proc) {
		for i := 0; i < 4; i++ {
			pool.Post(k, time.Duration(i)*time.Microsecond)
		}
		p.Sleep(10 * time.Microsecond)
		pool.Post(k, time.Microsecond)
	})
	if err := k.Run(); err != nil {
		t.Fatalf("Run = %v, want nil with only idle workers parked", err)
	}
	if all, idle := pool.Workers(); ran != 5 || all != 4 || idle != 4 {
		t.Fatalf("%d jobs ran on %d workers, %d idle; want 5 on 4, all idle", ran, all, idle)
	}
	never := NewEvent(k)
	busy := NewPool("b", func(p *Proc, ev *Event) { ev.Wait(p) })
	k.Spawn("main", func(p *Proc) { busy.Post(k, never) })
	if _, ok := k.Run().(*DeadlockError); !ok {
		t.Fatal("busy worker not reported")
	}
	k.Close()
	if len(k.procs) != 0 || k.alive != 0 {
		t.Fatalf("kernel not empty after Close: %d procs, %d alive", len(k.procs), k.alive)
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("%d goroutines left after Close, want %d", n, base)
	}
}
