package simtest

import (
	"strings"
	"testing"

	"mpixccl/internal/sim"
)

// A world left open is reported with its parked process's stack; closing
// it clears the report.
func TestLeakedProcsFindsUnclosedWorld(t *testing.T) {
	k := sim.NewKernel()
	ch := sim.NewChan[int](k, 0)
	k.SpawnDaemon("server", func(p *sim.Proc) {
		for {
			ch.Recv(p)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	leaked := leakedProcs()
	if len(leaked) != 1 || !strings.Contains(leaked[0], spawnFrame) {
		t.Fatalf("open world: leaked = %q, want one %s stack", leaked, spawnFrame)
	}
	k.Close()
	if leaked := leakedProcs(); leaked != nil {
		t.Fatalf("closed world still reported: %q", leaked)
	}
}
