// Package simtest holds the test-binary leak gate shared by packages that
// build simulated worlds.
package simtest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// spawnFrame marks a simulation process goroutine: every one is started by
// sim.Kernel.Spawn, which appears in its stack.
const spawnFrame = "sim.(*Kernel).Spawn"

// maxListed bounds how many leaked stacks Main prints in full.
const maxListed = 10

// Main runs the package's tests, then fails the package if any simulation
// process goroutine is still alive, printing the first maxListed stacks. A
// world whose kernel was never closed (sim.Kernel.Close) leaves its parked
// procs — daemons, senders, engines — behind for the life of the test
// binary, and with them every buffer the world references. Call it last in
// TestMain:
//
//	func TestMain(m *testing.M) { simtest.Main(m) }
//
// Main calls os.Exit with the package's result.
func Main(m *testing.M) {
	code := m.Run()
	if leaked := leakedProcs(); len(leaked) > 0 {
		fmt.Fprintf(os.Stderr, "simtest: %d simulation goroutines outlived the tests (a world was not closed):\n\n",
			len(leaked))
		listed := leaked
		if len(listed) > maxListed {
			listed = listed[:maxListed]
		}
		fmt.Fprintf(os.Stderr, "%s\n\n", strings.Join(listed, "\n\n"))
		if rest := len(leaked) - len(listed); rest > 0 {
			fmt.Fprintf(os.Stderr, "... and %d more\n", rest)
		}
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// leakedProcs returns the stacks of live simulation process goroutines. A
// process retired by Close hands control back before its goroutine
// returns, so a few may still be exiting: wait up to a second for them.
func leakedProcs() []string {
	var leaked []string
	for i := 0; i < 100; i++ {
		leaked = leaked[:0]
		for _, g := range strings.Split(allStacks(), "\n\n") {
			if strings.Contains(g, spawnFrame) {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return leaked
}

// allStacks returns every goroutine's stack trace.
func allStacks() string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}
