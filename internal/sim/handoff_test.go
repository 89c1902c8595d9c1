package sim

import (
	"errors"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"
)

// These tests pin what the coroutine hand-off guarantees when a process
// does not return normally: its panic or runtime.Goexit travels to the
// goroutine that called Run, instead of killing the binary or stranding
// the scheduler.

// runRecovering runs r and returns what it panicked with, if anything.
func runRecovering(r func() error) (panicked any) {
	defer func() { panicked = recover() }()
	_ = r()
	return nil
}

func TestPanicInProcessSurfacesFromRun(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	boom := errors.New("boom")
	ev := NewEvent(k)
	k.SpawnDaemon("bystander", func(p *Proc) { ev.Wait(p) })
	k.Spawn("bomb", func(p *Proc) {
		p.Sleep(time.Microsecond)
		panic(boom)
	})
	r := runRecovering(k.Run)
	pe, ok := r.(*PanicError)
	if !ok {
		t.Fatalf("Run panicked with %v (%T), want a *PanicError", r, r)
	}
	if pe.Proc != "bomb" || !errors.Is(pe, boom) {
		t.Fatalf("PanicError names %q with value %v, want bomb and boom", pe.Proc, pe.Value)
	}
	if !strings.Contains(string(pe.Stack), "TestPanicInProcessSurfacesFromRun") {
		t.Fatalf("PanicError stack lacks the panicking frame:\n%s", pe.Stack)
	}
	if k.Now() != time.Microsecond {
		t.Fatalf("clock at %v after the panic, want 1µs", k.Now())
	}
	k.Close()
	if n := settleGoroutines(base); n > base {
		t.Fatalf("%d goroutines left after Close, want %d", n, base)
	}
}

// A driven machine (Proc.Drive) advances in whichever side picks its
// process's activation, here a process parking in Sleep or exiting, or the
// loop of a Run or of a bounded window (a shard's runWindow) after a window
// that left it pending, but its panic is the driving process's own.
func TestPanicInGuardedStepNamesItsProcess(t *testing.T) {
	for _, host := range []struct {
		name string
		fn   func(p *Proc)
		run  func(k *Kernel) error
	}{
		{"parking", func(p *Proc) { p.Sleep(2 * time.Microsecond) }, nil},
		{"exiting", func(*Proc) {}, nil},
		{"run", func(*Proc) {}, func(k *Kernel) error { return k.Run() }},
		{"window", func(*Proc) {}, func(k *Kernel) error { k.runWindow(time.Microsecond + 1); return nil }},
	} {
		t.Run(host.name, func(t *testing.T) {
			k := NewKernel()
			defer k.Close()
			boom := errors.New("boom")
			var g *Proc
			g = k.Spawn("guarded", func(p *Proc) {
				p.Drive(machineFunc(func() Wait {
					if p.Now() == 0 {
						return Sleep(time.Microsecond)
					}
					panic(boom)
				}))
			})
			k.Spawn("host", host.fn)
			run := k.Run
			if host.run != nil {
				k.runWindow(time.Microsecond / 2)
				run = func() error { return host.run(k) }
			}
			r := runRecovering(run)
			pe, ok := r.(*PanicError)
			if !ok {
				t.Fatalf("Run panicked with %v (%T), want a *PanicError", r, r)
			}
			if pe.Proc != "guarded" || !errors.Is(pe, boom) {
				t.Fatalf("PanicError names %q with value %v, want guarded and boom", pe.Proc, pe.Value)
			}
			if g.dead {
				t.Fatal("the guarded process exited; it should still be parked for Close to unwind")
			}
		})
	}
}

func TestShardedPanicSurfacesFromRun(t *testing.T) {
	s := NewSharded(2, time.Microsecond)
	defer s.Close()
	for i := 0; i < s.Shards(); i++ {
		i := i
		s.Kernel(i).Spawn("work", func(p *Proc) {
			p.Sleep(time.Microsecond)
			if i == 1 {
				panic("shard 1 failed")
			}
		})
	}
	r := runRecovering(s.Run)
	if pe, ok := r.(*PanicError); !ok || pe.Value != "shard 1 failed" {
		t.Fatalf("Sharded.Run panicked with %v, want shard 1's *PanicError", r)
	}
}

// A process calling runtime.Goexit — what t.FailNow does — ends the
// goroutine running Run the same way, so deferred calls there (Close)
// still run.
func TestGoexitInProcessEndsRun(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	ev := NewEvent(k)
	k.SpawnDaemon("bystander", func(p *Proc) { ev.Wait(p) })
	k.Spawn("quitter", func(p *Proc) {
		p.Sleep(time.Microsecond)
		runtime.Goexit()
	})
	returned := make(chan bool)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		defer k.Close()
		_ = k.Run()
		ok = true
	}()
	if <-returned {
		t.Fatal("Run returned normally after a process called runtime.Goexit")
	}
	if len(k.procs) != 0 {
		t.Fatalf("%d procs left after Close", len(k.procs))
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("%d goroutines left after Close, want %d", n, base)
	}
}

// failNowChild selects the child-process body of
// TestFailNowInProcessEndsTest.
const failNowChild = "SIM_FAILNOW_CHILD"

// t.FailNow inside a process fails the test and ends it: no hang, and the
// test's own deferred Close runs. The failing test runs in a child test
// binary, since its failure is the expected outcome.
func TestFailNowInProcessEndsTest(t *testing.T) {
	if os.Getenv(failNowChild) == "1" {
		k := NewKernel()
		defer func() {
			k.Close()
			println("closed after FailNow")
		}()
		k.Spawn("failer", func(p *Proc) {
			p.Sleep(time.Microsecond)
			t.FailNow()
		})
		_ = k.Run()
		t.Log("Run returned after FailNow")
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFailNowInProcessEndsTest$", "-test.timeout=60s")
	cmd.Env = append(os.Environ(), failNowChild+"=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("child test: err = %v, want a failing exit\n%s", err, out)
	}
	for _, want := range []string{"--- FAIL: TestFailNowInProcessEndsTest", "closed after FailNow"} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("child output lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(string(out), "Run returned") || strings.Contains(string(out), "panic") {
		t.Fatalf("child test did not end at FailNow:\n%s", out)
	}
}
