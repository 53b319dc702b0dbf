// Package sim is a deterministic discrete-event simulation (DES) kernel.
//
// It provides a virtual clock, an event queue ordered by (time, sequence),
// coroutine-backed simulated processes in the style of process-oriented
// simulators (SimPy, CSIM), FIFO resources, mailboxes, and a seeded random
// number generator. Each process is a runtime coroutine (iter.Pull) with one
// goroutine of its own; the scheduler switches to it directly and it
// switches back when it parks. Exactly one goroutine — either the scheduler
// or a single simulated process — runs at any instant, so simulations are
// fully deterministic for a given seed and program.
//
// All other substrate packages (network, disks, file systems, MPI) are built
// on this kernel; virtual time is an int64 nanosecond count.
package sim
