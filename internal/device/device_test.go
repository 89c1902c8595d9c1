package device

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
	"time"

	"mpixccl/internal/sim"
)

func newTestDevice(k *sim.Kernel) *Device {
	return New(k, 0, 0, 0, SpecA100)
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Host: "host", NvidiaGPU: "nvidia-gpu", AMDGPU: "amd-gpu", HabanaHPU: "habana-hpu",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind = %q", Kind(99).String())
	}
}

func TestMallocAccounting(t *testing.T) {
	k := sim.NewKernel()
	d := newTestDevice(k)
	b, err := d.Malloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if d.allocated != 1<<20 {
		t.Fatalf("Allocated = %d", d.allocated)
	}
	b.Free()
	if d.allocated != 0 {
		t.Fatalf("Allocated after free = %d", d.allocated)
	}
}

// Freeing a view leaves device accounting alone: the parent still owns the
// storage, and only the parent's own Free returns it.
func TestFreeViewKeepsAccounting(t *testing.T) {
	k := sim.NewKernel()
	d := newTestDevice(k)
	b := d.MustMalloc(1 << 20)
	v := b.Slice(0, 512<<10)
	v.Free()
	if d.allocated != 1<<20 {
		t.Fatalf("Allocated after freeing a view = %d, want %d", d.allocated, 1<<20)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Free of a view did not panic")
			}
		}()
		v.Free()
	}()
	b.Free()
	if d.allocated != 0 {
		t.Fatalf("Allocated after freeing the parent = %d, want 0", d.allocated)
	}
}

// A View addresses a segment by value: same bytes as Slice, bounds-checked.
func TestViewMatchesSlice(t *testing.T) {
	k := sim.NewKernel()
	d := newTestDevice(k)
	b := d.MustMalloc(64)
	for i := range b.Bytes() {
		b.Bytes()[i] = byte(i)
	}
	v := b.View(8, 32).Sub(4, 16)
	if v.Len() != 16 || v.Device() != d || !bytes.Equal(v.Bytes(), b.Slice(12, 16).Bytes()) {
		t.Fatalf("view %+v bytes %v, want b[12:28]", v, v.Bytes())
	}
	if w := b.Whole(); w.Len() != 64 || w.Off != 0 {
		t.Fatalf("Whole = %+v", w)
	}
	for _, f := range []func(){
		func() { b.View(60, 8) },
		func() { b.View(-1, 4) },
		func() { v.Sub(8, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range view did not panic")
				}
			}()
			f()
		}()
	}
}

func TestMallocOOM(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, 0, 0, 0, Spec{Kind: NvidiaGPU, Model: "tiny", MemBytes: 1024})
	if _, err := d.Malloc(512); err != nil {
		t.Fatal(err)
	}
	_, err := d.Malloc(1024)
	oom, ok := err.(*OutOfMemoryError)
	if !ok {
		t.Fatalf("err = %v, want OutOfMemoryError", err)
	}
	if oom.Free != 512 {
		t.Fatalf("Free = %d, want 512", oom.Free)
	}
}

func TestMallocNegative(t *testing.T) {
	k := sim.NewKernel()
	d := newTestDevice(k)
	if _, err := d.Malloc(-1); err == nil {
		t.Fatal("negative malloc succeeded")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	k := sim.NewKernel()
	d := newTestDevice(k)
	b := d.MustMalloc(64)
	b.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	b.Free()
}

func TestBufferZeroInitialized(t *testing.T) {
	k := sim.NewKernel()
	d := newTestDevice(k)
	b := d.MustMalloc(128)
	for i, v := range b.Bytes() {
		if v != 0 {
			t.Fatalf("byte %d = %d, want 0", i, v)
		}
	}
}

func TestOnDevice(t *testing.T) {
	k := sim.NewKernel()
	gpu := newTestDevice(k)
	host := New(k, 1, 0, 0, SpecHostDRAM)
	if !gpu.MustMalloc(8).OnDevice() {
		t.Error("GPU buffer not OnDevice")
	}
	if host.MustMalloc(8).OnDevice() {
		t.Error("host-device buffer reported OnDevice")
	}
	if NewHostBuffer(8).OnDevice() {
		t.Error("detached host buffer reported OnDevice")
	}
}

func TestSliceSharesStorage(t *testing.T) {
	k := sim.NewKernel()
	d := newTestDevice(k)
	b := d.MustMalloc(32)
	s := b.Slice(8, 8)
	s.SetFloat64(0, 3.25)
	if got := b.Float64(1); got != 3.25 {
		t.Fatalf("parent element = %v, want 3.25", got)
	}
	if s.Len() != 8 {
		t.Fatalf("slice len = %d", s.Len())
	}
}

func TestSliceOutOfRangePanics(t *testing.T) {
	k := sim.NewKernel()
	d := newTestDevice(k)
	b := d.MustMalloc(16)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range slice did not panic")
		}
	}()
	b.Slice(8, 16)
}

func TestElementAccessorsRoundTrip(t *testing.T) {
	b := NewHostBuffer(64)
	b.SetFloat32(0, 1.5)
	b.SetFloat64(1, -2.25)
	b.SetInt32(4, -7)
	binary.LittleEndian.PutUint64(b.Bytes()[3*8:], 1<<40)
	if b.Float32(0) != 1.5 || b.Float64(1) != -2.25 || b.Int32(4) != -7 || b.Int64(3) != 1<<40 {
		t.Fatalf("round trip mismatch: %v %v %v %v", b.Float32(0), b.Float64(1), b.Int32(4), b.Int64(3))
	}
}

func TestFillAndEqual(t *testing.T) {
	a := NewHostBuffer(32)
	b := NewHostBuffer(32)
	a.FillFloat32(2.5)
	b.FillFloat32(2.5)
	if !a.Equal(b) {
		t.Fatal("identical fills not Equal")
	}
	b.SetFloat32(3, 0)
	if a.Equal(b) {
		t.Fatal("different buffers Equal")
	}
	if a.Equal(NewHostBuffer(16)) {
		t.Fatal("different lengths Equal")
	}
}

func TestCopyAndReduceTime(t *testing.T) {
	k := sim.NewKernel()
	d := New(k, 0, 0, 0, Spec{MemBandwidth: 1e9, ReduceBandwidth: 5e8})
	if got := d.CopyTime(1e9); got != time.Second {
		t.Fatalf("CopyTime = %v", got)
	}
	if got := d.ReduceTime(5e8); got != time.Second {
		t.Fatalf("ReduceTime = %v", got)
	}
	if d.CopyTime(0) != 0 || d.ReduceTime(-5) != 0 {
		t.Fatal("zero/negative sizes should cost nothing")
	}
}

func TestStreamFIFOOrdering(t *testing.T) {
	k := sim.NewKernel()
	d := newTestDevice(k)
	s := d.NewStream()
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		s.Enqueue(func(p *sim.Proc) {
			p.Sleep(time.Duration(4-i) * time.Microsecond) // later tasks shorter
			order = append(order, i)
		})
	}
	k.Spawn("main", func(p *sim.Proc) { s.Synchronize(p) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want FIFO", order)
		}
	}
}

// enqueueBusy enqueues a fixed-duration work item, as a compute kernel:
// launch overhead plus busy time on the stream.
func enqueueBusy(s *Stream, busy sim.Time) {
	s.Enqueue(func(p *sim.Proc) { p.Sleep(s.dev.KernelLaunch + busy) })
}

func TestStreamSynchronizeWaitsForAll(t *testing.T) {
	k := sim.NewKernel()
	d := newTestDevice(k)
	s := d.NewStream()
	enqueueBusy(s, 10*time.Microsecond)
	enqueueBusy(s, 20*time.Microsecond)
	var at sim.Time
	k.Spawn("main", func(p *sim.Proc) {
		s.Synchronize(p)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 2*SpecA100.KernelLaunch + 30*time.Microsecond
	if at != want {
		t.Fatalf("synchronized at %v, want %v", at, want)
	}
}

func TestStreamRecordAndWaitEvent(t *testing.T) {
	k := sim.NewKernel()
	d := newTestDevice(k)
	s1, s2 := d.NewStream(), d.NewStream()
	enqueueBusy(s1, 50*time.Microsecond)
	ev := s1.Record()
	s2.Enqueue(func(p *sim.Proc) { ev.Wait(p) }) // cudaStreamWaitEvent
	var consumerStart sim.Time
	s2.Enqueue(func(p *sim.Proc) { consumerStart = p.Now() })
	k.Spawn("main", func(p *sim.Proc) {
		s2.Synchronize(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := SpecA100.KernelLaunch + 50*time.Microsecond
	if consumerStart != want {
		t.Fatalf("consumer started at %v, want %v (after producer)", consumerStart, want)
	}
}

func TestRecordOnIdleStreamIsFired(t *testing.T) {
	k := sim.NewKernel()
	d := newTestDevice(k)
	s := d.NewStream()
	if !s.Record().Fired() {
		t.Fatal("record on idle stream should be already-fired")
	}
}

func TestSynchronizeIdleStreamReturnsImmediately(t *testing.T) {
	k := sim.NewKernel()
	d := newTestDevice(k)
	s := d.NewStream()
	k.Spawn("main", func(p *sim.Proc) {
		s.Synchronize(p)
		if p.Now() != 0 {
			t.Error("sync of idle stream advanced time")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: allocation accounting never goes negative and frees restore the
// exact allocated figure, for any interleaving of mallocs and frees.
func TestAllocationAccountingProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		k := sim.NewKernel()
		d := New(k, 0, 0, 0, Spec{Kind: NvidiaGPU, MemBytes: 1 << 30})
		var bufs []*Buffer
		var want int64
		for _, sz := range sizes {
			b, err := d.Malloc(int64(sz))
			if err != nil {
				return false
			}
			want += int64(sz)
			bufs = append(bufs, b)
			if d.allocated != want {
				return false
			}
		}
		for _, b := range bufs {
			want -= b.Len()
			b.Free()
			if d.allocated != want {
				return false
			}
		}
		return d.allocated == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
