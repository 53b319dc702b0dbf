package sim

// Resource is a FIFO server with fixed capacity, the workhorse for modelling
// contended hardware: a disk head, a network link, a CPU. Acquire blocks the
// calling process while the resource is saturated; waiters are served in
// arrival order, which keeps the simulation deterministic.
//
// A unit can be claimed two ways: by a process (Acquire/HoldFor, which park
// the caller) or by a pure event callback (AcquireThen/HoldForThen, which
// involve no process at all). Both kinds queue as one wake function — a
// parked process's dispatch event or the callback itself — in one FIFO, so a
// mixed population is served in arrival order.
type Resource struct {
	env     *Env
	cap     int
	inUse   int
	waiters []func()
}

// NewResource returns a resource with the given capacity (>= 1).
func NewResource(env *Env, capacity int) *Resource {
	r := &Resource{}
	r.Init(env, capacity)
	return r
}

// Init prepares a zero Resource in place: the slab-allocation twin of
// NewResource, for embedding resources by value in preallocated arrays
// (interface slabs, disk slabs). A Resource must not be copied after Init.
func (r *Resource) Init(env *Env, capacity int) {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	r.env = env
	r.cap = capacity
}

// Acquire obtains one unit of the resource, blocking p until available.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.cap {
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, p.dispatchFn)
	p.park()
}

// AcquireThen obtains one unit of the resource on behalf of an event chain:
// fn runs holding the unit — immediately (synchronously) when one is free,
// otherwise as a scheduled event when the queue reaches it. fn must
// eventually lead to a Release. Unlike Acquire, no process or goroutine is
// involved; this is the event-callback half of the resource API.
func (r *Resource) AcquireThen(fn func()) {
	if r.inUse < r.cap {
		r.inUse++
		fn()
		return
	}
	r.waiters = append(r.waiters, fn)
}

// Release returns one unit, waking the longest-waiting claim if any.
func (r *Resource) Release() {
	if len(r.waiters) > 0 {
		w := r.waiters[0]
		copy(r.waiters, r.waiters[1:])
		r.waiters[len(r.waiters)-1] = nil
		r.waiters = r.waiters[:len(r.waiters)-1]
		// The unit passes directly to the waiter (inUse unchanged), whose
		// wake is scheduled at the current instant: a parked process and a
		// callback claim take the same path and interleave identically.
		r.env.schedule(r.env.now, w)
		return
	}
	if r.inUse == 0 {
		panic("sim: Release without Acquire")
	}
	r.inUse--
}

// HoldFor occupies one unit of the resource for d virtual nanoseconds: the
// standard pattern for a store-and-forward hop or a disk transfer.
func (r *Resource) HoldFor(p *Proc, d Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// HoldForThen occupies one unit for d virtual nanoseconds and then calls fn,
// all as pure events: the no-process counterpart of HoldFor, used for
// store-and-forward hops whose initiator has no process of its own (network
// message delivery). Its events are those of a process calling HoldFor —
// acquire (queue if saturated), one event d later that releases and
// continues — so callback and process claims contending for one resource
// produce identical schedules.
func (r *Resource) HoldForThen(d Duration, fn func()) {
	r.AcquireThen(func() {
		r.env.After(d, func() {
			r.Release()
			fn()
		})
	})
}

// InUse reports the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen reports the number of blocked waiters.
func (r *Resource) QueueLen() int { return len(r.waiters) }

// Mailbox is an unbounded FIFO of messages with blocking receive. Sends
// never block (use a Resource to model transmission time); receives block
// until a message arrives. Multiple receivers are served in FIFO order.
//
// Like Resource, a Mailbox serves two kinds of receiver through one FIFO
// queue: processes (Get, which parks the caller) and event callbacks
// (GetThen, which involve no process). Wake-ups are batched: however many
// messages arrive at one instant, the mailbox schedules at most one drain
// event, which pairs messages with receivers in FIFO order and runs each
// receiver in turn inside that event. Receivers therefore run in arrival
// order, at the instant of the Put that made the drain pending, and nothing
// else can run between two of them.
type Mailbox[T any] struct {
	env      *Env
	items    []T
	recvq    []mboxWaiter[T]
	draining bool
	drainFn  func() // bound drain method, allocated once in Init
}

// mboxWaiter is one queued receiver: a parked process (which pops the item
// itself when redispatched, via Get's re-check loop) or a one-shot callback
// (to which the drain hands the item directly).
type mboxWaiter[T any] struct {
	p  *Proc
	fn func(T)
}

// NewMailbox returns an empty mailbox bound to env.
func NewMailbox[T any](env *Env) *Mailbox[T] {
	m := &Mailbox[T]{}
	m.Init(env)
	return m
}

// Init prepares a zero Mailbox in place: the slab-allocation twin of
// NewMailbox, for preallocated per-node port arrays. A Mailbox must not be
// copied after Init.
func (m *Mailbox[T]) Init(env *Env) {
	m.env = env
	m.drainFn = m.drain
}

// Put deposits v and, if receivers are waiting, schedules the drain event
// (at most one pending at a time). Put may be called from a process or from
// a pure scheduled event.
func (m *Mailbox[T]) Put(v T) {
	m.items = append(m.items, v)
	if len(m.recvq) > 0 && !m.draining {
		m.draining = true
		m.env.schedule(m.env.now, m.drainFn)
	}
}

// drain serves queued (message, receiver) pairs in FIFO order until either
// runs out. A redispatched process consumes its message inside Get (and may
// re-queue itself or deposit more messages while the drain runs); a callback
// receiver is handed the message directly. Both paths advance the same
// queues, so the loop terminates.
func (m *Mailbox[T]) drain() {
	m.draining = false
	for len(m.items) > 0 && len(m.recvq) > 0 {
		w := m.recvq[0]
		copy(m.recvq, m.recvq[1:])
		m.recvq[len(m.recvq)-1] = mboxWaiter[T]{}
		m.recvq = m.recvq[:len(m.recvq)-1]
		if w.p != nil {
			m.env.dispatch(w.p)
			continue
		}
		w.fn(m.pop())
	}
}

// pop removes and returns the oldest message; items must be non-empty.
func (m *Mailbox[T]) pop() T {
	v := m.items[0]
	copy(m.items, m.items[1:])
	var zero T
	m.items[len(m.items)-1] = zero
	m.items = m.items[:len(m.items)-1]
	return v
}

// Get removes and returns the oldest message, blocking p until one exists.
func (m *Mailbox[T]) Get(p *Proc) T {
	for len(m.items) == 0 {
		m.recvq = append(m.recvq, mboxWaiter[T]{p: p})
		p.park()
	}
	return m.pop()
}

// GetThen receives one message on behalf of an event chain: fn runs with the
// oldest message — immediately (synchronously) when one is queued, matching
// a process Get that finds the mailbox non-empty — otherwise when the drain
// reaches this receiver. The registration is one-shot: a server loop re-arms
// by calling GetThen again from inside fn, and so consumes a burst of queued
// messages inline, at one instant, in FIFO order — as a process looping on
// Get does.
func (m *Mailbox[T]) GetThen(fn func(T)) {
	if len(m.items) > 0 {
		fn(m.pop())
		return
	}
	m.recvq = append(m.recvq, mboxWaiter[T]{fn: fn})
}

// Len reports the number of queued messages.
func (m *Mailbox[T]) Len() int { return len(m.items) }

// Signal is a broadcast condition: processes Wait on it and a later Fire
// releases every current waiter at once. Fires with no waiters are not
// remembered (it is a condition variable, not a latch).
type Signal struct {
	env     *Env
	waiters []func()
}

// NewSignal returns a signal bound to env.
func NewSignal(env *Env) *Signal { return &Signal{env: env} }

// Wait blocks p until the next Fire.
func (s *Signal) Wait(p *Proc) {
	s.waiters = append(s.waiters, p.dispatchFn)
	p.park()
}

// Fire wakes every process currently waiting through a single scheduled
// drain event, which dispatches them in wait order with nothing else running
// between them. A process that waits again while the drain runs joins the
// next Fire.
func (s *Signal) Fire() {
	ws := s.waiters
	s.waiters = nil
	if len(ws) == 0 {
		return
	}
	s.env.schedule(s.env.now, func() {
		for _, w := range ws {
			w()
		}
	})
}

// Waiting reports the number of blocked waiters.
func (s *Signal) Waiting() int { return len(s.waiters) }

// Latch is a one-shot gate: Open releases all present and future waiters.
type Latch struct {
	env    *Env
	open   bool
	signal *Signal
}

// NewLatch returns a closed latch.
func NewLatch(env *Env) *Latch {
	return &Latch{env: env, signal: NewSignal(env)}
}

// Wait blocks p until the latch opens; returns immediately if already open.
func (l *Latch) Wait(p *Proc) {
	if l.open {
		return
	}
	l.signal.Wait(p)
}

// Open releases all waiters; idempotent.
func (l *Latch) Open() {
	if l.open {
		return
	}
	l.open = true
	l.signal.Fire()
}

// Opened reports whether the latch has been opened.
func (l *Latch) Opened() bool { return l.open }
