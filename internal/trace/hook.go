package trace

import (
	"slices"

	"iotaxo/internal/sim"
)

// Hook is a tracing framework's subscription to one instrumented layer.
// Enter runs before the traced operation and Exit after it, with the
// completed record; on the library and syscall layers both may charge
// virtual time on p (ptrace stops the tracee twice per call). The
// server-side layers — network, PFS servers, disk arrays — run as event
// chains with no process: they call only Exit, with p == nil.
type Hook interface {
	Enter(p *sim.Proc, name string)
	Exit(p *sim.Proc, rec *Record)
}

// Point is the tracepoint of one instrumented layer: its subscribed hooks,
// which it fans each phase out to in attach order. The zero value has no
// subscribers and costs a site one length check: sites render arguments
// and build records only when the point is Armed.
type Point struct{ hooks []Hook }

// Attach subscribes h.
func (t *Point) Attach(h Hook) { t.hooks = append(t.hooks, h) }

// Detach unsubscribes every attachment of h.
func (t *Point) Detach(h Hook) {
	t.hooks = slices.DeleteFunc(slices.Clone(t.hooks), func(x Hook) bool { return x == h })
}

// Armed reports whether any hook is subscribed.
func (t *Point) Armed() bool { return len(t.hooks) > 0 }

// Enter runs every subscriber's Enter.
func (t *Point) Enter(p *sim.Proc, name string) {
	for _, h := range t.hooks {
		h.Enter(p, name)
	}
}

// Exit runs every subscriber's Exit.
func (t *Point) Exit(p *sim.Proc, rec *Record) {
	for _, h := range t.hooks {
		h.Exit(p, rec)
	}
}
