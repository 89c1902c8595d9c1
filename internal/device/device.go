// Package device simulates compute accelerators: NVIDIA GPUs, AMD GPUs, and
// Habana Gaudi HPUs, plus plain host memory. A Device owns a fixed pool of
// device memory from which Buffers are allocated, executes work on in-order
// Streams (the CUDA/HIP/SynapseAI stream model), and charges virtual time
// for kernel launches and on-device memory movement.
//
// The simulation moves real bytes: a Buffer is backed by an ordinary byte
// slice, so collectives built on top can be checked for correctness, not
// just timing.
package device

import (
	"fmt"
	"time"

	"mpixccl/internal/sim"
)

// Kind identifies the accelerator family, which determines which vendor CCL
// can drive the device.
type Kind int

const (
	// Host is CPU DRAM; MPI can always reach it, CCLs cannot.
	Host Kind = iota
	// NvidiaGPU is a CUDA device (NCCL, MSCCL).
	NvidiaGPU
	// AMDGPU is a ROCm device (RCCL).
	AMDGPU
	// HabanaHPU is a Gaudi training processor (HCCL).
	HabanaHPU
	// IntelGPU is a Ponte-Vecchio-class device (oneCCL) — the paper's
	// stated future-work target (§6).
	IntelGPU
)

// String returns the conventional vendor name for the device kind.
func (k Kind) String() string {
	switch k {
	case Host:
		return "host"
	case NvidiaGPU:
		return "nvidia-gpu"
	case AMDGPU:
		return "amd-gpu"
	case HabanaHPU:
		return "habana-hpu"
	case IntelGPU:
		return "intel-gpu"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Spec describes a device model's fixed characteristics.
type Spec struct {
	Kind Kind
	// Model is the marketing name, e.g. "A100-SXM4-40GB".
	Model string
	// MemBytes is the device memory capacity.
	MemBytes int64
	// MemBandwidth is local HBM/DRAM copy bandwidth in bytes/second,
	// charged for device-local memcpy (e.g. staging, unpack).
	MemBandwidth float64
	// KernelLaunch is the host-side cost to launch one compute kernel.
	KernelLaunch time.Duration
	// ReduceBandwidth is elementwise-reduction throughput in bytes/second,
	// charged when a collective combines buffers on this device.
	ReduceBandwidth float64
}

// Well-known device models used by the Table 1 systems.
var (
	// SpecA100 models an NVIDIA A100-SXM4-40GB (ThetaGPU).
	SpecA100 = Spec{Kind: NvidiaGPU, Model: "A100-SXM4-40GB", MemBytes: 40 << 30,
		MemBandwidth: 1.4e12, KernelLaunch: 4 * time.Microsecond, ReduceBandwidth: 600e9}
	// SpecMI100 models an AMD MI100 32GB (MRI).
	SpecMI100 = Spec{Kind: AMDGPU, Model: "MI100-32GB", MemBytes: 32 << 30,
		MemBandwidth: 1.2e12, KernelLaunch: 6 * time.Microsecond, ReduceBandwidth: 450e9}
	// SpecGaudi models a first-generation Habana Gaudi HPU 32GB (Voyager).
	SpecGaudi = Spec{Kind: HabanaHPU, Model: "Gaudi-32GB", MemBytes: 32 << 30,
		MemBandwidth: 0.9e12, KernelLaunch: 9 * time.Microsecond, ReduceBandwidth: 300e9}
	// SpecPVC models an Intel Data Center GPU Max 1550 (Ponte Vecchio).
	SpecPVC = Spec{Kind: IntelGPU, Model: "PVC-Max1550", MemBytes: 128 << 30,
		MemBandwidth: 1.6e12, KernelLaunch: 5 * time.Microsecond, ReduceBandwidth: 500e9}
	// SpecHostDRAM models node-local CPU memory.
	SpecHostDRAM = Spec{Kind: Host, Model: "DDR4", MemBytes: 256 << 30,
		MemBandwidth: 150e9, KernelLaunch: 0, ReduceBandwidth: 60e9}
)

// Device is one simulated accelerator instance placed on a cluster node.
type Device struct {
	Spec
	// ID is the device's global index across the system.
	ID int
	// Node is the index of the node hosting the device.
	Node int
	// Local is the device's index within its node (CUDA_VISIBLE_DEVICES slot).
	Local int

	k         *sim.Kernel
	allocated int64
	streams   []*Stream
	pool      map[int64][][]byte // freed blocks by exact size, reused by Malloc*
}

// New creates a device on the given kernel. Most callers build devices
// through the topology package rather than directly.
func New(k *sim.Kernel, id, node, local int, spec Spec) *Device {
	return &Device{Spec: spec, ID: id, Node: node, Local: local, k: k}
}

// Kernel returns the simulation kernel the device runs on.
func (d *Device) Kernel() *sim.Kernel { return d.k }

// String identifies the device for logs and errors.
func (d *Device) String() string {
	return fmt.Sprintf("%s[%d] node%d.%d", d.Kind, d.ID, d.Node, d.Local)
}

// OutOfMemoryError reports a failed device allocation.
type OutOfMemoryError struct {
	Device    string
	Requested int64
	Free      int64
}

func (e *OutOfMemoryError) Error() string {
	return fmt.Sprintf("device %s: out of memory: requested %d bytes, %d free", e.Device, e.Requested, e.Free)
}

// Malloc allocates a device buffer of n bytes, zero-initialized. Freed
// blocks of the same size are recycled (and re-zeroed) before new host
// memory is reserved.
func (d *Device) Malloc(n int64) (*Buffer, error) {
	b, err := d.MallocScratch(n)
	if b != nil && b.recycled {
		clear(b.data)
	}
	return b, err
}

// MallocScratch allocates a device buffer of n bytes whose contents are
// undefined, like cudaMalloc: a recycled block keeps its previous bytes.
// Use it for staging buffers that are always written before they are read —
// pipeline scratch slots, pack/unpack workspaces — where re-zeroing a
// recycled block on every collective would dominate the allocator.
//
// A fresh block is advised onto transparent huge pages before anything
// touches it (Linux only): the whole aligned 2 MiB pages inside it then
// fault in 2 MiB at a time on first write instead of 4 KiB at a time. A
// recycled block was advised when it was fresh. The advice changes neither
// the bytes nor the modeled time.
func (d *Device) MallocScratch(n int64) (*Buffer, error) {
	if n < 0 {
		return nil, fmt.Errorf("device %s: negative allocation %d", d, n)
	}
	if d.allocated+n > d.MemBytes {
		return nil, &OutOfMemoryError{Device: d.String(), Requested: n, Free: d.MemBytes - d.allocated}
	}
	d.allocated += n
	if blocks := d.pool[n]; len(blocks) > 0 {
		data := blocks[len(blocks)-1]
		blocks[len(blocks)-1] = nil
		d.pool[n] = blocks[:len(blocks)-1]
		return &Buffer{dev: d, data: data, recycled: true}, nil
	}
	data := make([]byte, n)
	adviseHugePages(data)
	return &Buffer{dev: d, data: data}, nil
}

// recycle accepts a freed block back into the size-keyed free list.
func (d *Device) recycle(data []byte) {
	if len(data) == 0 {
		return
	}
	if d.pool == nil {
		d.pool = make(map[int64][][]byte)
	}
	n := int64(len(data))
	d.pool[n] = append(d.pool[n], data)
}

// MustMalloc is Malloc for tests and examples where OOM is a programming error.
func (d *Device) MustMalloc(n int64) *Buffer {
	b, err := d.Malloc(n)
	if err != nil {
		panic(err)
	}
	return b
}

// MustMallocScratch is MallocScratch where OOM is a programming error.
func (d *Device) MustMallocScratch(n int64) *Buffer {
	b, err := d.MallocScratch(n)
	if err != nil {
		panic(err)
	}
	return b
}

// CopyTime reports how long a local memcpy of n bytes takes on this device.
func (d *Device) CopyTime(n int64) time.Duration {
	if n <= 0 || d.MemBandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(n) / d.MemBandwidth * float64(time.Second))
}

// ReduceTime reports how long an elementwise reduction over n bytes takes.
func (d *Device) ReduceTime(n int64) time.Duration {
	if n <= 0 || d.ReduceBandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(n) / d.ReduceBandwidth * float64(time.Second))
}
