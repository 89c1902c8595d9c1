package experiments

import (
	"sync"
	"testing"
)

// TestRunAllMatchesSerial pins the parallel runner's determinism contract:
// because every experiment owns its own simulation kernel, a concurrent run
// must produce byte-identical output to a serial run, in the requested order.
func TestRunAllMatchesSerial(t *testing.T) {
	t.Parallel()
	ids := []string{"table1", "fig1a", "fig1b"}
	serial := RunAll(ids, Options{}, 1)
	par := RunAll(ids, Options{}, 0)
	if len(serial) != len(ids) || len(par) != len(ids) {
		t.Fatalf("got %d serial / %d parallel results, want %d", len(serial), len(par), len(ids))
	}
	for i, id := range ids {
		if serial[i].ID != id || par[i].ID != id {
			t.Fatalf("result %d: ids %q (serial) / %q (parallel), want %q", i, serial[i].ID, par[i].ID, id)
		}
		if serial[i].Err != nil {
			t.Fatalf("%s: serial run failed: %v", id, serial[i].Err)
		}
		if par[i].Err != nil {
			t.Fatalf("%s: parallel run failed: %v", id, par[i].Err)
		}
		if serial[i].Output != par[i].Output {
			t.Errorf("%s: parallel output differs from serial output", id)
		}
	}
}

func TestRunAllPropagatesErrors(t *testing.T) {
	t.Parallel()
	results := RunAll([]string{"table1", "no-such-figure"}, Options{}, 2)
	if results[0].Err != nil {
		t.Errorf("table1 failed: %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Error("unknown experiment id did not report an error")
	}
}

// TestRunAllConcurrentOptions runs two configurations in one process at
// once: each RunAll must return exactly its serial output, so no option
// leaks from one run into the other.
func TestRunAllConcurrentOptions(t *testing.T) {
	t.Parallel()
	ids := []string{"fig5"}
	opts := []Options{{}, {Compile: true}}
	serial := make([][]RunResult, len(opts))
	for i, o := range opts {
		serial[i] = RunAll(ids, o, 1)
	}
	concurrent := make([][]RunResult, len(opts))
	var wg sync.WaitGroup
	for i, o := range opts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = RunAll(ids, o, 1)
		}()
	}
	wg.Wait()
	for i, o := range opts {
		s, c := serial[i][0], concurrent[i][0]
		if s.Err != nil || c.Err != nil {
			t.Fatalf("%+v: serial error %v, concurrent error %v", o, s.Err, c.Err)
		}
		if c.Output != s.Output {
			t.Errorf("%+v: concurrent output differs from serial output", o)
		}
	}
	if serial[0][0].Output == serial[1][0].Output {
		t.Error("Compile did not change the fig5 grid")
	}
}
