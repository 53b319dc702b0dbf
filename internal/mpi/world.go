// Package mpi simulates the MPI library of the paper's testbed (mpich
// 1.2.6): ranks with point-to-point messaging and tag matching, a
// dissemination barrier, binomial-tree collectives, and MPI-IO.
//
// MPI-IO calls execute real system calls through the node kernel, so an
// strace-style tracer attached at the syscall boundary observes the nested
// SYS_statfs64/SYS_open/... sequence of Figure 1, while an ltrace-style
// tracer additionally observes the MPI_* library calls on each rank's
// library tracepoint (Rank.Tracepoint) — exactly the strace/ltrace
// distinction LANL-Trace exposes as its granularity knob.
package mpi

import (
	"iotaxo/internal/netsim"
	"iotaxo/internal/sim"
	"iotaxo/internal/vfs"
)

// PortBase is the first network port used by MPI ranks (one port per rank).
const PortBase = 7200

// World is an MPI job: a set of ranks bound to node kernels. Ranks live in
// one contiguous slab (65536-rank worlds allocate one array, not 65536
// objects); they are addressed by pointer into it and never copied.
type World struct {
	env     *sim.Env
	net     *netsim.Network
	ranks   []Rank
	started bool

	// FinishedAt records each rank's completion time of the last Launch.
	FinishedAt []sim.Time
}

// NewWorld creates a world with one rank per kernel entry. The same kernel
// may appear multiple times to place several ranks on one node.
func NewWorld(net_ *netsim.Network, kernels []*vfs.Kernel) *World {
	w := &World{env: net_.Env(), net: net_}
	w.ranks = make([]Rank, len(kernels))
	for i, k := range kernels {
		pc := k.Spawn(vfs.Cred{UID: 500, GID: 500, User: "mpiuser"})
		pc.SetRank(i)
		w.ranks[i] = Rank{
			world: w,
			rank:  i,
			node:  k.Node(),
			pc:    pc,
			inbox: net_.Listen(k.Node(), PortBase+i),
		}
	}
	w.FinishedAt = make([]sim.Time, len(kernels))
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return &w.ranks[i] }

// Env returns the simulation environment.
func (w *World) Env() *sim.Env { return w.env }

// Launch spawns every rank's program as a simulated process. It returns a
// latch that opens when all ranks have finished; run the environment to
// drive them. Per-rank completion times land in FinishedAt.
func (w *World) Launch(program func(p *sim.Proc, r *Rank)) *sim.Latch {
	done := sim.NewLatch(w.env)
	wg := sim.NewWaitGroup(w.env)
	wg.Add(len(w.ranks))
	for i := range w.ranks {
		r := &w.ranks[i]
		// All ranks share one spawn name: per-rank identity lives in the
		// process context (pid/rank), and a shared literal keeps Launch free
		// of per-rank Sprintf allocations at 65536 ranks.
		w.env.Go("mpi.rank", func(p *sim.Proc) {
			program(p, r)
			w.FinishedAt[r.rank] = p.Now()
			wg.Done()
		})
	}
	w.env.Go("mpi.join", func(p *sim.Proc) {
		wg.Wait(p)
		done.Open()
	})
	return done
}

// RunToCompletion launches the program and drives the environment until all
// ranks finish, returning the elapsed virtual time (job wall-clock).
func (w *World) RunToCompletion(program func(p *sim.Proc, r *Rank)) sim.Duration {
	start := w.env.Now()
	w.Launch(program)
	w.env.Run()
	var end sim.Time
	for _, t := range w.FinishedAt {
		if t > end {
			end = t
		}
	}
	return end - start
}

// mpiMsg is one point-to-point payload.
type mpiMsg struct {
	From  int
	Tag   int
	Bytes int64
	Data  any
}
