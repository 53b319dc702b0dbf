// Package interpose provides the shared machinery every tracing framework
// in the repository is built from: per-event cost models for the different
// interposition mechanisms (ptrace, breakpoint-based library tracing,
// LD_PRELOAD, in-kernel VFS hooks) and a Recorder, a trace.Hook for any
// process-driven tracepoint, that charges virtual time per event and
// forwards records to a sink.
//
// The per-event charge is the mechanism behind the paper's central overhead
// observation: "a constant number of traced events are generated for each
// block. The number of such events is inversely proportional to block size,
// thus a smaller block size implies more events to trace."
package interpose

import (
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// CostModel is the virtual-time price of observing one event.
type CostModel struct {
	// EnterCost is charged when the call is entered (e.g. the first ptrace
	// stop: two context switches into the tracer and back).
	EnterCost sim.Duration
	// ExitCost is charged when the call returns (the second stop, plus
	// argument decoding and formatting).
	ExitCost sim.Duration
	// PerOutputByte is charged per byte of trace data emitted (synchronous
	// write of the trace line/record to the trace file).
	PerOutputByte sim.Duration
}

// EventCost reports the total charge for one event producing n output bytes.
func (m CostModel) EventCost(n int64) sim.Duration {
	return m.EnterCost + m.ExitCost + sim.Duration(n)*m.PerOutputByte
}

// Ptrace approximates strace with timestamped output (-tt -T) written
// synchronously to a per-process trace file: two ptrace stops per syscall
// (four context switches), register and argument fetches via PTRACE_PEEKDATA,
// and the formatted line write.
func Ptrace() CostModel {
	return CostModel{
		EnterCost:     60 * sim.Microsecond,
		ExitCost:      90 * sim.Microsecond,
		PerOutputByte: 600 * sim.Nanosecond,
	}
}

// LtraceBreakpoint approximates ltrace on library calls: software
// breakpoints with single-stepping through the PLT, symbol resolution, and
// argument formatting make it two orders of magnitude more expensive than a
// plain function call — the reason LANL-Trace's ltrace mode is its
// high-overhead configuration (ltrace slowdowns of 100-1000x on
// call-intensive code were normal in this era).
func LtraceBreakpoint() CostModel {
	return CostModel{
		EnterCost:     2200 * sim.Microsecond,
		ExitCost:      2800 * sim.Microsecond,
		PerOutputByte: 15 * sim.Microsecond,
	}
}

// Preload approximates LD_PRELOAD interposition (//TRACE): an in-process
// wrapper function, orders of magnitude cheaper than ptrace.
func Preload() CostModel {
	return CostModel{
		EnterCost:     800 * sim.Nanosecond,
		ExitCost:      1200 * sim.Nanosecond,
		PerOutputByte: 60 * sim.Nanosecond,
	}
}

// VFSHook approximates an in-kernel stackable-layer hook (Tracefs): a
// function call on the VFS path plus buffered binary output.
func VFSHook() CostModel {
	return CostModel{
		EnterCost:     300 * sim.Nanosecond,
		ExitCost:      500 * sim.Nanosecond,
		PerOutputByte: 25 * sim.Nanosecond,
	}
}

// Zero is the free model, used by the ablation benchmark that demonstrates
// the overhead curves collapse without per-event charges.
func Zero() CostModel { return CostModel{} }

// Sink receives completed trace records.
type Sink interface {
	Emit(rec *trace.Record)
}

// StreamSink adapts a pipeline sink to the hook-facing Sink interface, so a
// framework can stream records straight into a codec or transform chain as
// they are observed.
type StreamSink struct {
	dst trace.Sink
	err error
}

// StreamTo wraps a pipeline sink. Check Err after the run; closing the
// underlying trace.Sink remains the caller's job.
func StreamTo(dst trace.Sink) *StreamSink { return &StreamSink{dst: dst} }

// Emit implements Sink. Pipeline errors are sticky and reported by Err —
// trace.Hook has no error channel of its own.
func (s *StreamSink) Emit(rec *trace.Record) {
	if s.err == nil {
		s.err = s.dst.Write(rec)
	}
}

// Err reports the first error returned by the underlying pipeline sink.
func (s *StreamSink) Err() error { return s.err }

// Recorder charges a cost model per observed event and forwards records to
// a sink. It is a trace.Hook, attached to a rank's library tracepoint or to
// its process's syscall tracepoint.
type Recorder struct {
	Model  CostModel
	Sink   Sink
	Filter func(*trace.Record) bool // nil traces everything

	// Stats.
	Events      int64
	Suppressed  int64
	OutputBytes int64
}

// NewRecorder returns a recorder with the given model and sink.
func NewRecorder(model CostModel, sink Sink) *Recorder {
	return &Recorder{Model: model, Sink: sink}
}

// Enter implements trace.Hook: charge the entry stop.
func (r *Recorder) Enter(p *sim.Proc, name string) {
	if r.Model.EnterCost > 0 {
		p.Sleep(r.Model.EnterCost)
	}
}

// Exit implements trace.Hook: filter, charge, forward.
func (r *Recorder) Exit(p *sim.Proc, rec *trace.Record) {
	if r.Model.ExitCost > 0 {
		p.Sleep(r.Model.ExitCost)
	}
	if r.Filter != nil && !r.Filter(rec) {
		r.Suppressed++
		return
	}
	n := rec.EstimatedTextSize()
	if r.Model.PerOutputByte > 0 {
		p.Sleep(sim.Duration(n) * r.Model.PerOutputByte)
	}
	r.Events++
	r.OutputBytes += n
	if r.Sink != nil {
		r.Sink.Emit(rec)
	}
}

// Collector is a Sink that retains records in memory, standing in for the
// per-process trace file.
type Collector struct {
	Records []trace.Record
}

// Emit implements Sink.
func (c *Collector) Emit(rec *trace.Record) { c.Records = append(c.Records, rec.Clone()) }

// Len returns the number of collected records.
func (c *Collector) Len() int { return len(c.Records) }

// Source streams the collected records: how downstream pipelines read a
// per-process trace back out of its in-memory "trace file".
func (c *Collector) Source() trace.Source { return trace.SliceSource(c.Records) }
