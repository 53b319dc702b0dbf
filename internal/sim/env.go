package sim

import (
	"fmt"
	"math/rand"
)

// Env is a simulation environment: a virtual clock plus an event queue.
// Create one with NewEnv, spawn processes with Go, and advance time with Run
// or RunUntil. An Env must not be shared between real OS threads while
// running; the kernel enforces a strict one-runner-at-a-time discipline
// internally.
type Env struct {
	now   Time
	queue eventHeap
	seq   uint64
	rng   *rand.Rand

	procs   map[*Proc]struct{} // live (started, not finished) processes
	spawns  map[string]int     // processes ever spawned, by Go name
	running bool
	stopped bool
	nextPID int

	// nextSpan backs NextSpanID. It is a pure counter with no effect on
	// virtual time, the event queue, or the rng, so allocating spans cannot
	// perturb a schedule: traced and untraced runs stay byte-identical.
	nextSpan uint64
}

// NewEnv returns an environment whose random source is seeded with seed.
// The same seed and the same program yield an identical event history.
func NewEnv(seed int64) *Env {
	return &Env{
		rng:    rand.New(rand.NewSource(seed)),
		procs:  make(map[*Proc]struct{}),
		spawns: make(map[string]int),
	}
}

// LiveProcs reports the number of live (started, not finished) processes:
// each is a coroutine with one goroutine of its own, so this is the
// simulation's contribution to the runtime's goroutine population.
func (e *Env) LiveProcs() int { return len(e.procs) }

// Spawned reports how many processes have ever been spawned under the given
// Go name. Scalability tests use it to prove hot paths (network message
// delivery) allocate no process per event.
func (e *Env) Spawned(name string) int { return e.spawns[name] }

// Spawns returns a copy of the full spawn census: processes ever spawned,
// keyed by Go name. Regression guards iterate it to assert that no
// per-request or per-message process names (".worker", ".dispatch",
// "pfs.io", ...) reappear in an eventized hot path.
func (e *Env) Spawns() map[string]int {
	out := make(map[string]int, len(e.spawns))
	for name, n := range e.spawns {
		out[name] = n
	}
	return out
}

// TotalSpawned reports the number of processes ever spawned in this
// environment, across all names. After full eventization this is
// O(ranks): one process per MPI rank plus a constant few joiners,
// regardless of request volume.
func (e *Env) TotalSpawned() int {
	total := 0
	for _, n := range e.spawns {
		total += n
	}
	return total
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// NextSpanID allocates a fresh causal span identifier. IDs start at 1 and
// increase monotonically; 0 means "no span". Allocation touches nothing but
// the counter, so it is schedule-neutral.
func (e *Env) NextSpanID() uint64 {
	e.nextSpan++
	return e.nextSpan
}

// Rand returns the environment's deterministic random source.
func (e *Env) Rand() *rand.Rand { return e.rng }

// schedule enqueues fn to run at instant at. Scheduling in the past is a
// programming error.
func (e *Env) schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	e.queue.Push(event{at: at, seq: e.seq, fn: fn})
}

// At schedules fn to run as a pure event (not a process) at instant at.
func (e *Env) At(at Time, fn func()) { e.schedule(at, fn) }

// After schedules fn to run d nanoseconds from now.
func (e *Env) After(d Duration, fn func()) { e.schedule(e.now+d, fn) }

// Run processes events until the queue is empty. It returns the final
// virtual time. Processes still blocked when the queue drains are killed.
func (e *Env) Run() Time { return e.RunUntil(MaxTime) }

// RunUntil processes all events with timestamps <= deadline and then stops,
// killing any process still blocked. It returns the virtual time of the last
// event processed (or deadline if it is not MaxTime and events remain). A
// panic inside a process propagates out of RunUntil as an error that names
// the process, carries its stack, and wraps the panic value (an error as is,
// any other value formatted).
func (e *Env) RunUntil(deadline Time) Time {
	if e.running {
		panic("sim: RunUntil called reentrantly")
	}
	if e.stopped {
		panic("sim: environment already stopped")
	}
	e.running = true
	// Deferred so that a panic out of an event or process still kills the
	// bystanders: their goroutines exit without the caller calling Stop.
	defer func() {
		e.running = false
		e.Stop()
	}()
	for e.queue.Len() > 0 && e.queue.Peek().at <= deadline {
		ev := e.queue.Pop()
		e.now = ev.at
		ev.fn()
	}
	if deadline != MaxTime && deadline > e.now {
		e.now = deadline
	}
	return e.now
}

// Stop kills all still-blocked processes: each unwinds, running its deferred
// calls, and its goroutine exits. A process spawned but never dispatched
// exits without running. Stop is called automatically at the end of
// Run/RunUntil and is idempotent.
func (e *Env) Stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	for p := range e.procs {
		p.stop()
	}
	clear(e.procs)
}

// Pending reports the number of queued events; useful in tests.
func (e *Env) Pending() int { return e.queue.Len() }
