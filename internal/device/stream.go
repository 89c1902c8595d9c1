package device

import (
	"fmt"

	"mpixccl/internal/sim"
)

// Stream is an in-order execution queue on a device, mirroring CUDA/HIP
// streams and SynapseAI queues. Work items enqueue without blocking the
// caller; the stream's daemon process executes them one at a time in FIFO
// order in virtual time. CCL collectives run on streams, which is exactly
// the asynchrony the paper's abstraction layer has to manage.
type Stream struct {
	dev   *Device
	id    int
	tasks *sim.Chan[*streamTask]
	proc  *sim.Proc
	// last is the completion event of the most recently enqueued task,
	// used to implement Synchronize and Event capture.
	last *sim.Event
}

type streamTask struct {
	fn   func(p *sim.Proc)
	done *sim.Event
}

// NewStream creates a stream on the device and starts its executor daemon.
func (d *Device) NewStream() *Stream {
	s := &Stream{
		dev:   d,
		id:    len(d.streams),
		tasks: sim.NewChan[*streamTask](d.k, 1024),
	}
	d.streams = append(d.streams, s)
	s.proc = d.k.SpawnDaemon(fmt.Sprintf("%s/stream%d", d, s.id), func(p *sim.Proc) {
		for {
			t := s.tasks.Recv(p)
			t.fn(p)
			t.done.Fire()
		}
	})
	return s
}

// Device returns the stream's device.
func (s *Stream) Device() *Device { return s.dev }

// Enqueue schedules fn on the stream and returns its completion event.
// fn runs on the stream's process; it may sleep, transfer, and synchronize
// with peer streams. The caller does not block.
func (s *Stream) Enqueue(fn func(p *sim.Proc)) *sim.Event {
	t := &streamTask{fn: fn, done: sim.NewEvent(s.dev.k)}
	if !s.tasks.TrySend(t) {
		panic(fmt.Sprintf("device: stream %s/%d queue overflow", s.dev, s.id))
	}
	s.last = t.done
	return t.done
}

// PersistentTask is a reusable stream work item: the task struct and its
// completion event are built once, and each Launch re-enqueues the same
// task after resetting the event. Persistent collectives use this to keep
// the per-step launch path free of heap allocations.
type PersistentTask struct {
	s *Stream
	t *streamTask
}

// NewPersistentTask builds a reusable work item for this stream. fn runs on
// the stream's process each time Launch is called.
func (s *Stream) NewPersistentTask(fn func(p *sim.Proc)) *PersistentTask {
	return &PersistentTask{
		s: s,
		t: &streamTask{fn: fn, done: sim.NewEvent(s.dev.k)},
	}
}

// Launch enqueues the task and returns its completion event. The previous
// launch must have completed (the done event fired) before relaunching; a
// persistent handle's Wait enforces that ordering naturally.
func (pt *PersistentTask) Launch() *sim.Event {
	pt.t.done.Reset()
	if !pt.s.tasks.TrySend(pt.t) {
		panic(fmt.Sprintf("device: stream %s/%d queue overflow", pt.s.dev, pt.s.id))
	}
	pt.s.last = pt.t.done
	return pt.t.done
}

// Synchronize blocks the calling process until every task enqueued so far
// has completed (cudaStreamSynchronize).
func (s *Stream) Synchronize(p *sim.Proc) {
	if s.last != nil {
		s.last.Wait(p)
	}
}

// Record captures the stream's current tail as an Event (cudaEventRecord):
// the returned event fires once all work enqueued before the call is done.
func (s *Stream) Record() *sim.Event {
	if s.last == nil {
		ev := sim.NewEvent(s.dev.k)
		ev.Fire()
		return ev
	}
	return s.last
}
