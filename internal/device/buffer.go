package device

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Buffer is a contiguous allocation in device (or host) memory. Byte-level
// access is exposed so communication layers can move real data; element
// accessors interpret the bytes as little-endian scalars, matching what a
// real GPU buffer of float32/float64/int32/... would hold.
type Buffer struct {
	dev      *Device // nil for detached host scratch buffers
	data     []byte
	freed    bool
	view     bool // slice of another buffer; never recycled
	recycled bool // backed by a reused block (contents undefined for scratch)
}

// NewHostBuffer allocates an unmanaged host buffer (no device accounting).
// Use it for MPI host-path staging and for test reference data.
func NewHostBuffer(n int64) *Buffer {
	return &Buffer{data: make([]byte, n)}
}

// Device returns the owning device, or nil for unmanaged host buffers.
func (b *Buffer) Device() *Device { return b.dev }

// OnDevice reports whether the buffer lives in accelerator memory. This is
// the "device buffer identify" check (cuPointerGetAttribute analogue) the
// abstraction layer performs before choosing a CCL path.
func (b *Buffer) OnDevice() bool { return b.dev != nil && b.dev.Kind != Host }

// Len returns the buffer size in bytes.
func (b *Buffer) Len() int64 { return int64(len(b.data)) }

// Bytes exposes the backing storage. Communication layers use it to move
// data; callers must not hold the slice across a Free.
func (b *Buffer) Bytes() []byte { return b.data }

// Slice returns a view of the byte range [off, off+n). The view shares
// storage with, and is accounted to, the parent buffer.
func (b *Buffer) Slice(off, n int64) *Buffer {
	if off < 0 || n < 0 || off+n > int64(len(b.data)) {
		panic(fmt.Sprintf("device: slice [%d,%d) out of range of %d-byte buffer", off, off+n, len(b.data)))
	}
	return &Buffer{dev: b.dev, data: b.data[off : off+n], view: true}
}

// View returns the by-value view of the byte range [off, off+n) of b. Like
// Slice it shares b's storage and accounting, but it is a plain value, so
// addressing a segment allocates nothing.
func (b *Buffer) View(off, n int64) View {
	if off < 0 || n < 0 || off+n > int64(len(b.data)) {
		panic(fmt.Sprintf("device: view [%d,%d) out of range of %d-byte buffer", off, off+n, len(b.data)))
	}
	return View{Buf: b, Off: off, N: n}
}

// Whole returns the view of all of b.
func (b *Buffer) Whole() View { return View{Buf: b, N: int64(len(b.data))} }

// View is the byte range [Off, Off+N) of a parent buffer, addressed by
// value: communication schedules hand segments around as Views, so touching
// a segment costs no allocation. The zero View addresses nothing.
type View struct {
	Buf    *Buffer
	Off, N int64
}

// Len returns the view's size in bytes.
func (v View) Len() int64 { return v.N }

// Bytes exposes the view's range of the parent's storage.
func (v View) Bytes() []byte { return v.Buf.data[v.Off : v.Off+v.N] }

// Device returns the parent's device (nil for unmanaged host buffers).
func (v View) Device() *Device { return v.Buf.dev }

// Sub returns the view of [off, off+n) within v.
func (v View) Sub(off, n int64) View {
	if off < 0 || n < 0 || off+n > v.N {
		panic(fmt.Sprintf("device: view [%d,%d) out of range of %d-byte view", off, off+n, v.N))
	}
	return View{Buf: v.Buf, Off: v.Off + off, N: n}
}

// Free releases the allocation back to the device. Freeing a host buffer,
// or a slice view, whose parent still owns the storage, leaves device
// accounting alone. Double-free panics (as CUDA would fail).
func (b *Buffer) Free() {
	if b.freed {
		panic("device: double free")
	}
	b.freed = true
	if b.dev != nil && !b.view {
		b.dev.allocated -= int64(len(b.data))
		b.dev.recycle(b.data)
	}
	b.data = nil
}

// Float32 returns element i interpreted as a float32.
func (b *Buffer) Float32(i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b.data[i*4:]))
}

// SetFloat32 stores v at element i.
func (b *Buffer) SetFloat32(i int, v float32) {
	binary.LittleEndian.PutUint32(b.data[i*4:], math.Float32bits(v))
}

// Float64 returns element i interpreted as a float64.
func (b *Buffer) Float64(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b.data[i*8:]))
}

// SetFloat64 stores v at element i.
func (b *Buffer) SetFloat64(i int, v float64) {
	binary.LittleEndian.PutUint64(b.data[i*8:], math.Float64bits(v))
}

// Int32 returns element i interpreted as an int32.
func (b *Buffer) Int32(i int) int32 {
	return int32(binary.LittleEndian.Uint32(b.data[i*4:]))
}

// SetInt32 stores v at element i.
func (b *Buffer) SetInt32(i int, v int32) {
	binary.LittleEndian.PutUint32(b.data[i*4:], uint32(v))
}

// Int64 returns element i interpreted as an int64.
func (b *Buffer) Int64(i int) int64 {
	return int64(binary.LittleEndian.Uint64(b.data[i*8:]))
}

// FillFloat32 sets every 4-byte element to v.
func (b *Buffer) FillFloat32(v float32) {
	for i := 0; i < len(b.data)/4; i++ {
		b.SetFloat32(i, v)
	}
}

// FillFloat64 sets every 8-byte element to v.
func (b *Buffer) FillFloat64(v float64) {
	for i := 0; i < len(b.data)/8; i++ {
		b.SetFloat64(i, v)
	}
}

// FillBytes sets every byte to v.
func (b *Buffer) FillBytes(v byte) {
	for i := range b.data {
		b.data[i] = v
	}
}

// Equal reports whether two buffers hold identical bytes.
func (b *Buffer) Equal(o *Buffer) bool {
	if len(b.data) != len(o.data) {
		return false
	}
	for i := range b.data {
		if b.data[i] != o.data[i] {
			return false
		}
	}
	return true
}
