// Package simtest holds the test-binary leak gate shared by packages that
// build simulated worlds.
package simtest

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// spawnFrame marks a simulation process goroutine: every process body runs
// in sim.Proc.run on its coroutine's goroutine, so it appears in the stack
// of each started process. A process never started has no goroutine.
const spawnFrame = "sim.(*Proc).run"

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

// leakedProcs returns the stacks of live simulation process goroutines.
// Close retires a process's goroutine before it returns, so none is still
// exiting.
func leakedProcs() []string {
	var leaked []string
	for _, g := range strings.Split(allStacks(), "\n\n") {
		if strings.Contains(g, spawnFrame) {
			leaked = append(leaked, g)
		}
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
