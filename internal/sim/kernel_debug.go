// Cold diagnostic paths for the kernel. Everything here runs only when a
// simulation fails (deadlock and panic reporting) — keeping it out of
// kernel.go keeps the hot-path file free of sort/strings and makes the
// scheduler loop easier to audit against the alloc-regression tests.
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// DeadlockError reports that the event queue drained while processes were
// still blocked — the virtual-time analogue of a hung program.
type DeadlockError struct {
	Now     Time
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%v; blocked: %s", e.Now, strings.Join(e.Blocked, ", "))
}

// blockedNames returns "name(reason)" for every non-daemon process still
// parked, sorted for stable error output.
func (k *Kernel) blockedNames() []string {
	var blocked []string
	for _, p := range k.procs {
		if p.daemon {
			continue
		}
		blocked = append(blocked, fmt.Sprintf("%s(%s)", p.name, p.blocked))
	}
	sort.Strings(blocked)
	return blocked
}

// PanicError is the value Run re-panics with when a process panics. The
// coroutine's stack is gone by the time the panic reaches Run's goroutine,
// so Stack keeps it.
type PanicError struct {
	Proc  string // name of the panicking process
	Value any    // the original panic value
	Stack []byte // the process's stack at the panic
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sim: process %s panicked: %v\n\n%s", e.Proc, e.Value, e.Stack)
}

// Unwrap returns the original panic value when it is an error.
func (e *PanicError) Unwrap() error {
	err, _ := e.Value.(error)
	return err
}
