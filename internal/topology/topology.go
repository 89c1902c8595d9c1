// Package topology describes simulated HPC systems: nodes, the accelerators
// they host, and the links connecting devices within and across nodes. The
// three presets mirror Table 1 of the paper (ThetaGPU, MRI, Voyager); link
// constants are calibrated in doc comments against the paper's measured
// point-to-point numbers (§4.2).
package topology

import (
	"fmt"
	"time"

	"mpixccl/internal/device"
	"mpixccl/internal/sim"
)

// Link models one interconnect class with an α–β cost: a transfer of n bytes
// over c channels costs Alpha + n/(c·ChannelBW). DirChannels caps how many
// channels a single transfer may drive; TotalChannels is the shared pool per
// link instance, so opposing directions contend (which is why measured
// bidirectional bandwidth is less than 2× unidirectional, as in Fig 3d).
type Link struct {
	// Name identifies the interconnect, e.g. "NVLink3" or "IB-HDR".
	Name string
	// Alpha is the per-message wire latency.
	Alpha time.Duration
	// ChannelBW is bytes/second delivered by one channel.
	ChannelBW float64
	// DirChannels is the most channels one transfer can use.
	DirChannels int
	// TotalChannels is the pool shared by all transfers (both directions)
	// on one link instance.
	TotalChannels int
}

// Time returns the uncontended cost of an n-byte transfer over c channels.
func (l Link) Time(n int64, c int) time.Duration {
	if c < 1 {
		c = 1
	}
	if c > l.DirChannels {
		c = l.DirChannels
	}
	if n <= 0 {
		return l.Alpha
	}
	return l.Alpha + time.Duration(float64(n)/(float64(c)*l.ChannelBW)*float64(time.Second))
}

// Node is one machine in the system.
type Node struct {
	// Index is the node's position in System.Nodes.
	Index int
	// Devices are the node's accelerators, in local-index order.
	Devices []*device.Device
	// Host is the node's CPU DRAM device for staged copies.
	Host *device.Device
}

// System is a simulated cluster: homogeneous nodes plus link definitions.
type System struct {
	// Name labels the system, e.g. "ThetaGPU".
	Name string
	// CPU and Memory describe the node hardware (Table 1 rows).
	CPU    string
	Memory string
	// Nodes lists the machines.
	Nodes []*Node
	// Intra is the device-to-device link within a node.
	Intra Link
	// Inter is the node-to-node network link.
	Inter Link
	// HostLink is the device-to-host staging link within a node (PCIe).
	HostLink Link

	devices []*device.Device
}

// Config parameterizes a system build.
type Config struct {
	Name           string
	CPU            string
	Memory         string
	NumNodes       int
	DevicesPerNode int
	DeviceSpec     device.Spec
	Intra, Inter   Link
	HostLink       Link
}

// Build instantiates a system's nodes and devices on the kernel.
func Build(k *sim.Kernel, cfg Config) *System {
	if cfg.NumNodes < 1 || cfg.DevicesPerNode < 1 {
		panic(fmt.Sprintf("topology: invalid config %d nodes × %d devices", cfg.NumNodes, cfg.DevicesPerNode))
	}
	s := &System{
		Name: cfg.Name, CPU: cfg.CPU, Memory: cfg.Memory,
		Intra: cfg.Intra, Inter: cfg.Inter, HostLink: cfg.HostLink,
	}
	id := 0
	for n := 0; n < cfg.NumNodes; n++ {
		node := &Node{Index: n}
		for l := 0; l < cfg.DevicesPerNode; l++ {
			d := device.New(k, id, n, l, cfg.DeviceSpec)
			node.Devices = append(node.Devices, d)
			s.devices = append(s.devices, d)
			id++
		}
		hostSpec := device.SpecHostDRAM
		node.Host = device.New(k, -1-n, n, -1, hostSpec)
		s.Nodes = append(s.Nodes, node)
	}
	return s
}

// NumNodes reports the node count.
func (s *System) NumNodes() int { return len(s.Nodes) }

// DevicesPerNode reports accelerators per node.
func (s *System) DevicesPerNode() int { return len(s.Nodes[0].Devices) }

// NumDevices reports the total accelerator count.
func (s *System) NumDevices() int { return len(s.devices) }

// Device returns the accelerator with the given global id.
func (s *System) Device(id int) *device.Device { return s.devices[id] }

// Devices returns all accelerators in global-id order.
func (s *System) Devices() []*device.Device { return s.devices }

// LinkBetween returns the link class connecting two devices.
func (s *System) LinkBetween(a, b *device.Device) Link {
	if a.Node == b.Node {
		return s.Intra
	}
	return s.Inter
}
