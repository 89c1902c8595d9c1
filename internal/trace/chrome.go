package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// Chrome trace-event export: the records render in chrome://tracing or
// Perfetto, one row per rank, one complete event per operation — a
// practical timeline view of where communication time goes.

// chromeEvent is the Trace Event Format "complete event" (ph = "X").
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace serializes the records as a Trace Event Format JSON
// array. PID 0 is the job; TIDs are ranks.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	events := make([]chromeEvent, 0, r.Len())
	for _, rec := range r.Records() {
		events = append(events, chromeEvent{
			Name: rec.Op,
			Cat:  rec.Path,
			Ph:   "X",
			TS:   float64(rec.Start.Nanoseconds()) / 1e3,
			Dur:  float64(rec.Duration.Nanoseconds()) / 1e3,
			PID:  0,
			TID:  rec.Rank,
			Args: map[string]string{
				"backend": rec.Backend,
				"bytes":   fmt.Sprintf("%d", rec.Bytes),
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// maxChromeMicros bounds the ts and dur values ParseChromeTrace accepts
// (about 11.6 days). Below it a microsecond float written by
// WriteChromeTrace rounds back to its exact nanosecond count.
const maxChromeMicros = 1e12

// ParseChromeTrace loads events written by WriteChromeTrace back into
// records (used by tests and tooling round-trips). Timestamps round to the
// nearest nanosecond, so written records read back exactly; events whose ts
// or dur lie beyond ±maxChromeMicros are rejected.
func ParseChromeTrace(data []byte) ([]Record, error) {
	var events []chromeEvent
	if err := json.Unmarshal(data, &events); err != nil {
		return nil, fmt.Errorf("trace: parse chrome trace: %w", err)
	}
	out := make([]Record, 0, len(events))
	for i, e := range events {
		if math.Abs(e.TS) > maxChromeMicros || math.Abs(e.Dur) > maxChromeMicros {
			return nil, fmt.Errorf("trace: parse chrome trace: event %d: ts %g or dur %g µs out of range", i, e.TS, e.Dur)
		}
		rec := Record{
			Op: e.Name, Path: e.Cat, Rank: e.TID,
			Start:    time.Duration(math.Round(e.TS * 1e3)),
			Duration: time.Duration(math.Round(e.Dur * 1e3)),
		}
		if e.Args != nil {
			rec.Backend = e.Args["backend"]
			fmt.Sscanf(e.Args["bytes"], "%d", &rec.Bytes)
		}
		out = append(out, rec)
	}
	return out, nil
}
