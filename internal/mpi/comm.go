package mpi

import (
	"fmt"

	"mpixccl/internal/device"
	"mpixccl/internal/fabric"
	"mpixccl/internal/metrics"
	"mpixccl/internal/sim"
	"mpixccl/internal/topology"
)

// Job is one MPI application run: a set of ranks placed on devices,
// sharing a fabric and a protocol profile.
type Job struct {
	fab     *fabric.Fabric
	profile Profile
	devices []*device.Device
	world   *commCtx
	nextCtx int
	// progress holds each world rank's resident progress processes, which
	// run its nonblocking operations other than eager sends (see post). A
	// rank's processes all live on the kernel of the rank's own process.
	progress []*sim.Pool[*Request]
	// sends holds each world rank's idle send states, which run its sends
	// (see sendOp), and recvs its idle receive states, which run its
	// receives (see recvOp).
	sends []idle[sendOp]
	recvs []idle[recvOp]
	// progs holds each world rank's idle collective programs (see
	// collProg).
	progs []idle[collProg]
}

// idle is a world rank's list of recycled protocol states.
type idle[T any] []*T

// get pops the state put last, or returns a fresh one from fresh when the
// list is empty.
func (l *idle[T]) get(fresh func() *T) *T {
	n := len(*l)
	if n == 0 {
		return fresh()
	}
	x := (*l)[n-1]
	(*l)[n-1] = nil
	*l = (*l)[:n-1]
	return x
}

// put returns a finished state, already cleared by its owner, to the list.
func (l *idle[T]) put(x *T) { *l = append(*l, x) }

// NewJob creates a job with one rank per given device, in rank order.
func NewJob(fab *fabric.Fabric, profile Profile, devices []*device.Device) *Job {
	if len(devices) == 0 {
		panic("mpi: job needs at least one device")
	}
	j := &Job{fab: fab, profile: profile, devices: devices, progress: make([]*sim.Pool[*Request], len(devices)),
		sends: make([]idle[sendOp], len(devices)), recvs: make([]idle[recvOp], len(devices)),
		progs: make([]idle[collProg], len(devices))}
	for r := range j.progress {
		j.progress[r] = sim.NewPool(fmt.Sprintf("mpi/r%d/progress", r), runRequest)
	}
	j.world = j.newCommCtx(identityGroup(len(devices)))
	return j
}

// NewJobOnSystem places one rank per accelerator of the system, in global
// device order (the mpirun default of consecutive local ranks per node).
func NewJobOnSystem(fab *fabric.Fabric, profile Profile, sys *topology.System, nranks int) *Job {
	if nranks <= 0 || nranks > sys.NumDevices() {
		panic(fmt.Sprintf("mpi: %d ranks on %d devices", nranks, sys.NumDevices()))
	}
	return NewJob(fab, profile, sys.Devices()[:nranks])
}

// Size returns the world communicator size.
func (j *Job) Size() int { return len(j.devices) }

// Profile returns the job's protocol constants.
func (j *Job) Profile() Profile { return j.profile }

// countSend records one point-to-point send's protocol choice in the
// fabric's registry, when one is attached. The eager / rendezvous split is
// the runtime's small- vs large-message personality
// (Profile.EagerThreshold), so exposing it per run is what lets the paper's
// protocol-crossover claims be checked after the fact.
func (j *Job) countSend(protocol string, bytes int64) {
	reg := j.fab.Metrics()
	if reg == nil {
		return
	}
	lbl := metrics.Labels{"protocol": protocol, "profile": j.profile.Name}
	reg.Counter("mpi_sends_total",
		"Point-to-point sends by wire protocol (eager or rendezvous).", lbl).Inc()
	reg.Counter("mpi_send_bytes_total",
		"Point-to-point payload bytes by wire protocol.", lbl).Add(float64(bytes))
}

// Fabric returns the transport the job communicates over.
func (j *Job) Fabric() *fabric.Fabric { return j.fab }

func identityGroup(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

// commCtx is the state shared by all ranks of one communicator: the
// matching engines and collective rendezvous helpers, indexed by the
// communicator-local rank.
type commCtx struct {
	job   *Job
	id    int
	group []int // world ranks, indexed by local rank
	match []*matchCtx
	sub   map[string]*subsetPending // in-flight Subset rendezvous by member list
}

func (j *Job) newCommCtx(group []int) *commCtx {
	ctx := &commCtx{job: j, id: j.nextCtx, group: group}
	j.nextCtx++
	ctx.match = make([]*matchCtx, len(group))
	for i := range ctx.match {
		ctx.match[i] = &matchCtx{}
	}
	return ctx
}

// Comm is one rank's handle on a communicator, valid only inside that
// rank's process. It carries the rank's device and sim process, so all
// blocking MPI calls are methods on Comm.
type Comm struct {
	ctx     *commCtx
	rank    int
	proc    *sim.Proc
	dev     *device.Device
	collSeq int
	// sendrecv is Sendrecv's send request, allocated on first use.
	sendrecv *Request
}

// Rank returns the calling rank within this communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.ctx.group) }

// WorldRank returns the rank's id in the world communicator.
func (c *Comm) WorldRank() int { return c.ctx.group[c.rank] }

// WorldRankOf returns the world rank of communicator-local rank r — the
// stable identity layers above key fault attribution and survivor
// agreement on, since local ranks renumber across Subset.
func (c *Comm) WorldRankOf(r int) int { return c.ctx.group[r] }

// Device returns the accelerator this rank drives.
func (c *Comm) Device() *device.Device { return c.dev }

// Proc returns the rank's simulation process.
func (c *Comm) Proc() *sim.Proc { return c.proc }

// Job returns the owning job.
func (c *Comm) Job() *Job { return c.ctx.job }

// Profile returns the job's protocol constants.
func (c *Comm) Profile() Profile { return c.ctx.job.profile }

// ContextID returns the communicator's unique context id within its job,
// usable as a cache key by layers above (e.g. the xCCL comm cache).
func (c *Comm) ContextID() int { return c.ctx.id }

// RankDevice returns the device driven by communicator-local rank r.
func (c *Comm) RankDevice(r int) *device.Device {
	return c.ctx.job.devices[c.ctx.group[r]]
}

// Run spawns one process per rank, in rank order, running fn, and drives
// the kernel until the job completes, returning any simulation error. A
// world runs once: when the kernel's Run returns (or re-panics a process's
// *sim.PanicError), Run closes the kernel, which unwinds every process
// still parked and releases the world.
func (j *Job) Run(fn func(c *Comm)) error {
	k := j.fab.Kernel()
	defer k.Close()
	for r := range j.devices {
		k.Spawn(fmt.Sprintf("rank%d", r), func(p *sim.Proc) {
			fn(&Comm{ctx: j.world, rank: r, proc: p, dev: j.devices[r]})
		})
	}
	return k.Run()
}

// subsetPending coordinates a Comm.Subset collective across its members.
type subsetPending struct {
	arrived int
	ready   *sim.Event
	result  *commCtx
}

// Subset builds a communicator containing exactly the given local ranks of
// this communicator, in the given order — MPI_Comm_create_group semantics:
// only the listed members call it, with identical member lists, and ranks
// outside the list are not involved at all. That asymmetry is what the
// ULFM-style shrink needs: the excluded (dead) ranks cannot be asked to
// participate in anything. The caller must appear in members.
func (c *Comm) Subset(members []int) *Comm {
	ctx := c.ctx
	if ctx.sub == nil {
		ctx.sub = make(map[string]*subsetPending)
	}
	key := fmt.Sprint(members)
	sp := ctx.sub[key]
	if sp == nil {
		sp = &subsetPending{ready: sim.NewEvent(c.proc.Kernel())}
		ctx.sub[key] = sp
	}
	sp.arrived++
	if sp.arrived < len(members) {
		sp.ready.Wait(c.proc)
	} else {
		group := make([]int, len(members))
		for i, lr := range members {
			group[i] = ctx.group[lr]
		}
		sp.result = ctx.job.newCommCtx(group)
		delete(ctx.sub, key)
		sp.ready.Fire()
	}
	for i, lr := range members {
		if lr == c.rank {
			return &Comm{ctx: sp.result, rank: i, proc: c.proc, dev: c.dev}
		}
	}
	panic("mpi: Subset caller not in members")
}
