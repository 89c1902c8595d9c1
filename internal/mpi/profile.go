package mpi

import "time"

// Profile holds the protocol constants of one MPI implementation flavor.
// The runtime machinery is shared; a Profile is what distinguishes the
// MVAPICH-style GPU-aware library (the paper's base runtime) from the
// Open MPI + UCX baseline it is compared against.
type Profile struct {
	// Name labels the flavor in reports.
	Name string
	// EagerThreshold is the largest payload (bytes) sent eagerly; larger
	// messages use the rendezvous protocol (RTS/CTS handshake).
	EagerThreshold int64
	// SendOverhead and RecvOverhead are per-message software costs.
	SendOverhead, RecvOverhead time.Duration
	// CollOverhead is the software cost to enter one collective call.
	CollOverhead time.Duration
	// Channels is how many fabric channels one MPI transfer drives. MPI
	// runtimes pipeline on a small number of rails; vendor CCLs saturate
	// many more, which is why CCLs win at large sizes.
	Channels int
	// ChunkBytes is the pipeline chunk for large transfers.
	ChunkBytes int64
	// Switchover points between short- and long-message collective
	// algorithms, in payload bytes per rank.
	BcastLong, ReduceLong, AllreduceLong, AllgatherLong, AlltoallLong int64
	// GPUBWEffIntra and GPUBWEffInter scale achievable wire bandwidth for
	// device-resident payloads on intra-node and inter-node links
	// respectively (0 or 1 = full GPU-direct speed). They model runtimes
	// without working GPUDirect paths, whose device traffic bounces
	// through host memory pipelines.
	GPUBWEffIntra, GPUBWEffInter float64
}

// gpuEff returns the effective (intra, inter) efficiencies with zero
// meaning "full speed".
func (p Profile) gpuEff() (intra, inter float64) {
	intra, inter = p.GPUBWEffIntra, p.GPUBWEffInter
	if intra <= 0 || intra > 1 {
		intra = 1
	}
	if inter <= 0 || inter > 1 {
		inter = 1
	}
	return intra, inter
}

// MVAPICHProfile returns the paper's base GPU-aware MPI runtime flavor:
// lean per-message software paths (what makes MPI win for small messages).
func MVAPICHProfile() Profile {
	return Profile{
		Name:           "mvapich-gpu",
		EagerThreshold: 16 << 10,
		SendOverhead:   400 * time.Nanosecond,
		RecvOverhead:   300 * time.Nanosecond,
		CollOverhead:   800 * time.Nanosecond,
		Channels:       2,
		ChunkBytes:     512 << 10,
		BcastLong:      64 << 10,
		ReduceLong:     32 << 10,
		AllreduceLong:  32 << 10,
		AllgatherLong:  64 << 10,
		AlltoallLong:   16 << 10,
	}
}

// OpenMPIUCXProfile returns the Open MPI + UCX baseline flavor: a heavier
// per-message path (PML/UCX dispatch layers) and later eager cutoff, which
// reproduces the overhead gap the paper measures against its designs.
func OpenMPIUCXProfile() Profile {
	p := MVAPICHProfile()
	p.Name = "openmpi-ucx"
	p.EagerThreshold = 8 << 10
	p.SendOverhead = 1100 * time.Nanosecond
	p.RecvOverhead = 900 * time.Nanosecond
	p.CollOverhead = 2600 * time.Nanosecond
	// The site build measured in the paper moves device buffers without a
	// working GPUDirect path inside the node (host bounce buffers), while
	// its IB transport retains most of the wire rate.
	p.GPUBWEffIntra = 0.06
	p.GPUBWEffInter = 0.55
	return p
}
