package sim

import (
	"testing"
	"time"
)

func TestDaemonDoesNotKeepSimulationAlive(t *testing.T) {
	k := NewKernel()
	ch := NewChan[int](k, 0)
	served := 0
	k.SpawnDaemon("server", func(p *Proc) {
		for {
			ch.Recv(p)
			served++
		}
	})
	k.Spawn("client", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * time.Microsecond)
			ch.Send(p, i)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatalf("daemon reported as deadlock: %v", err)
	}
	if served != 3 {
		t.Fatalf("served = %d, want 3", served)
	}
}

func TestDeadlockReportExcludesDaemons(t *testing.T) {
	k := NewKernel()
	ev := NewEvent(k)
	k.SpawnDaemon("svc", func(p *Proc) { ev.Wait(p) })
	k.Spawn("stuck", func(p *Proc) { ev.Wait(p) })
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck(event)" {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

// TestSetDaemonMovesLiveAccounting pins the worker-pool primitive: a worker
// parked between jobs as a daemon ends the run normally, and the same
// worker blocked forever inside a job it was handed as live is reported.
func TestSetDaemonMovesLiveAccounting(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	jobs := NewChan[*Event](k, 0)
	never := NewEvent(k)
	var worker *Proc
	worker = k.Spawn("worker", func(p *Proc) {
		for {
			p.SetDaemon(true)
			ev := jobs.Recv(p)
			ev.Wait(p)
		}
	})
	k.Spawn("idle", func(p *Proc) { p.Sleep(time.Microsecond) })
	if err := k.Run(); err != nil {
		t.Fatalf("idle daemon worker reported: %v", err)
	}
	k.Spawn("poster", func(p *Proc) {
		worker.SetDaemon(false)
		jobs.TrySend(never)
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %v, want deadlock", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "worker(event)" {
		t.Fatalf("blocked = %v, want [worker(event)]", de.Blocked)
	}
}
