package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// killedError is the sentinel park panics with when the environment stops a
// blocked process; the coroutine body recovers it so the process unwinds
// (running its deferred calls) and exits.
type killedError struct{}

func (killedError) Error() string { return "sim: process killed at shutdown" }

// Proc is a simulated process: a runtime coroutine (one goroutine) that runs
// in strict alternation with the scheduler. All blocking methods (Sleep,
// Resource.Acquire, Mailbox.Get, ...) must be called from the process's own
// coroutine.
type Proc struct {
	env  *Env
	pid  int
	name string

	// next dispatches the process until it parks or finishes (ok false once
	// it has finished), yield parks it (false when the environment is
	// stopping it), and stop kills it.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()

	// dispatchFn is the process's reusable dispatch event, allocated once at
	// spawn. It is the wake of every park: Sleep schedules it, and the
	// waiter queues of Resource, Signal and WaitGroup hold it. Caching it
	// here keeps the simulator's hottest path (hundreds of wake events per
	// rank) from allocating a fresh closure per event.
	dispatchFn func()

	// span is the causal span the process is currently executing under
	// (0 = none). Layers that start a child operation save the old value,
	// install their own span, and restore on return, so records emitted by
	// lower layers can name their parent.
	span uint64
}

// Go spawns fn as a new simulated process starting at the current virtual
// time. The returned Proc identifies the process; fn receives it for calling
// blocking primitives.
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	if e.stopped {
		panic("sim: Go after environment stopped")
	}
	e.nextPID++
	e.spawns[name]++
	p := &Proc{env: e, pid: e.nextPID, name: name}
	p.dispatchFn = func() { e.dispatch(p) }
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			r := recover()
			if _, killed := r.(killedError); r == nil || killed {
				return
			}
			// Re-panic, to surface from Run, with an error naming the
			// process, wrapping the value and carrying this stack.
			err, ok := r.(error)
			if !ok {
				err = fmt.Errorf("%v", r)
			}
			panic(fmt.Errorf("sim: process %q panicked: %w\n\n%s", p.name, err, debug.Stack()))
		}()
		fn(p)
	})
	e.procs[p] = struct{}{}
	// First activation is a normal scheduled event at the current time.
	e.schedule(e.now, p.dispatchFn)
	return p
}

// dispatch hands the CPU to p until it parks or finishes. A panic inside p
// propagates from here to the goroutine running the scheduler.
func (e *Env) dispatch(p *Proc) {
	if _, ok := p.next(); !ok {
		delete(e.procs, p)
	}
}

// park blocks the calling process until some event dispatches it again. It
// must only be called by p's own coroutine.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(killedError{})
	}
}

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Name returns the process name given at spawn.
func (p *Proc) Name() string { return p.name }

// PID returns the process's unique id within its environment.
func (p *Proc) PID() int { return p.pid }

// Span returns the causal span the process is currently executing under
// (0 = none).
func (p *Proc) Span() uint64 { return p.span }

// SetSpan installs a causal span as the process's current context and
// returns the previous one so callers can restore it.
func (p *Proc) SetSpan(s uint64) (prev uint64) {
	prev = p.span
	p.span = s
	return prev
}

// Sleep suspends the process for d nanoseconds of virtual time. Negative
// durations sleep zero time but still yield to the scheduler.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.env.schedule(p.env.now+d, p.dispatchFn)
	p.park()
}

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc(%d,%s)", p.pid, p.name) }
