// Package lanltrace reimplements LANL-Trace, the paper's in-house tracing
// framework: a wrapper around strace (system calls only) or ltrace (library
// calls and system calls) that produces three human-readable outputs per run
// (Figure 1):
//
//  1. raw trace data per process (strace-style lines),
//  2. aggregate timing information from a simple MPI job run before and
//     after the traced application (each node reports its local time, does a
//     barrier, and reports again — the data that lets analysis account for
//     clock skew and drift), and
//  3. a summary count of traced calls.
//
// The framework is passive (no application instrumentation), works on the
// parallel file system out of the box, and pays per-event interposition
// costs that make its overhead inversely proportional to the application's
// I/O block size — the paper's central measurement.
package lanltrace

import (
	"fmt"
	"sort"
	"strings"

	"iotaxo/internal/analysis"
	"iotaxo/internal/clocks"
	"iotaxo/internal/core"
	"iotaxo/internal/interpose"
	"iotaxo/internal/mpi"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// Mode selects the wrapped tracer.
type Mode int

const (
	// ModeStrace traces system calls only.
	ModeStrace Mode = iota
	// ModeLtrace traces library calls and system calls (the default and
	// most expensive configuration).
	ModeLtrace
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == ModeStrace {
		return "strace"
	}
	return "ltrace"
}

// Config tunes the framework.
type Config struct {
	Mode Mode
	// SyscallModel and LibModel are the per-event cost models; zero values
	// select the defaults for the mode.
	SyscallModel interpose.CostModel
	LibModel     interpose.CostModel
	// SkipTimingJob disables the pre/post barrier job (for ablations).
	SkipTimingJob bool
}

// DefaultConfig returns the standard ltrace-mode configuration.
func DefaultConfig() Config {
	return Config{
		Mode:         ModeLtrace,
		SyscallModel: interpose.Ptrace(),
		LibModel:     interpose.LtraceBreakpoint(),
	}
}

// StraceConfig returns the lighter strace-mode configuration.
func StraceConfig() Config {
	return Config{
		Mode:         ModeStrace,
		SyscallModel: interpose.Ptrace(),
	}
}

func (c Config) fix() Config {
	zero := interpose.CostModel{}
	if c.SyscallModel == zero {
		c.SyscallModel = interpose.Ptrace()
	}
	if c.Mode == ModeLtrace && c.LibModel == zero {
		c.LibModel = interpose.LtraceBreakpoint()
	}
	return c
}

// BarrierSample is one line pair of the aggregate timing output: a rank's
// local-clock readings around a barrier.
type BarrierSample struct {
	Rank    int
	Node    string
	PID     int
	Entered sim.Time // local clock at barrier entry
	Exited  sim.Time // local clock at barrier exit
}

// Report is the result of one traced run: the three outputs plus the
// elapsed-time measurement.
type Report struct {
	Command string
	Mode    Mode
	Elapsed sim.Duration

	// PerRank raw traces, indexed by rank.
	PerRank []*interpose.Collector
	// Pre and Post are the timing-job samples around the application.
	Pre, Post []BarrierSample

	// TraceEvents and TraceBytes aggregate tracer output volume.
	TraceEvents int64
	TraceBytes  int64
}

// Framework is a LANL-Trace instance bound to a configuration.
type Framework struct {
	cfg Config
}

// New returns a framework with the given configuration.
func New(cfg Config) *Framework { return &Framework{cfg: cfg.fix()} }

// Name implements the common framework interface.
func (f *Framework) Name() string { return "LANL-Trace" }

// Mode returns the wrapped tracer mode.
func (f *Framework) Mode() Mode { return f.cfg.Mode }

// Run executes program under tracing on the world and returns the report.
// The sequence mirrors the real tool: timing job, traced application,
// timing job. Elapsed covers only the application phase (what the paper
// measures with the time utility).
func (f *Framework) Run(w *mpi.World, command string, program func(p *sim.Proc, r *mpi.Rank)) *Report {
	n := w.Size()
	rep := &Report{
		Command: command,
		Mode:    f.cfg.Mode,
		PerRank: make([]*interpose.Collector, n),
		Pre:     make([]BarrierSample, n),
		Post:    make([]BarrierSample, n),
	}
	recorders := make([]*interpose.Recorder, 0, 2*n)
	appStart := make([]sim.Time, n)
	appEnd := make([]sim.Time, n)

	w.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		me := r.RankID()
		if !f.cfg.SkipTimingJob {
			rep.Pre[me] = timingJob(p, r)
		}

		// Attach the tracer (strace/ltrace fork+attach at app launch).
		col := &interpose.Collector{}
		rep.PerRank[me] = col
		sysRec := interpose.NewRecorder(f.cfg.SyscallModel, col)
		r.Proc().Tracepoint().Attach(sysRec)
		recorders = append(recorders, sysRec)
		libRec := interpose.NewRecorder(f.cfg.LibModel, col)
		if f.cfg.Mode == ModeLtrace {
			r.Tracepoint().Attach(libRec)
			recorders = append(recorders, libRec)
		}

		appStart[me] = p.Now()
		program(p, r)
		appEnd[me] = p.Now()

		// Detach before the post timing job.
		r.Proc().Tracepoint().Detach(sysRec)
		r.Tracepoint().Detach(libRec)
		if !f.cfg.SkipTimingJob {
			rep.Post[me] = timingJob(p, r)
		}
	})

	var first, last sim.Time
	for i := 0; i < n; i++ {
		if i == 0 || appStart[i] < first {
			first = appStart[i]
		}
		if appEnd[i] > last {
			last = appEnd[i]
		}
	}
	rep.Elapsed = last - first
	for _, rec := range recorders {
		rep.TraceEvents += rec.Events
		rep.TraceBytes += rec.OutputBytes
	}
	return rep
}

// timingJob is the "simple MPI job" of the paper: report local time, do a
// barrier, report local time again.
func timingJob(p *sim.Proc, r *mpi.Rank) BarrierSample {
	entered := r.Wtime(p)
	r.Barrier(p)
	exited := r.Wtime(p)
	return BarrierSample{
		Rank:    r.RankID(),
		Node:    r.Node(),
		PID:     r.Proc().PID(),
		Entered: entered,
		Exited:  exited,
	}
}

// RankSource streams one rank's raw trace ordered by call start time (an
// enclosing library call appears before the system calls it issued, as
// ltrace's "<unfinished ...>" lines do).
func (rep *Report) RankSource(rank int) trace.Source {
	col := rep.PerRank[rank]
	recs := make([]trace.Record, len(col.Records))
	copy(recs, col.Records)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	return trace.SliceSource(recs)
}

// RecordSource streams every rank's records back to back (unsorted across
// ranks, like reading the per-process trace files in sequence).
func (rep *Report) RecordSource() trace.Source {
	srcs := make([]trace.Source, 0, len(rep.PerRank))
	for _, col := range rep.PerRank {
		if col != nil {
			srcs = append(srcs, col.Source())
		}
	}
	return trace.ChainSources(srcs...)
}

// RawTraceText renders rank's raw trace in the Figure 1 format by pumping
// RankSource through a text sink.
func (rep *Report) RawTraceText(rank int) string {
	var b strings.Builder
	w := trace.NewTextSink(&b)
	trace.Copy(w, rep.RankSource(rank))
	w.Close()
	return b.String()
}

// AggregateTimingText renders the timing-job output in the Figure 1 format:
//
//	# Barrier before /mpi_io_test.exe ...
//	7: host13.lanl.gov (10378) Entered barrier at 1159808385.170918
//	7: host13.lanl.gov (10378) Exited barrier at 1159808385.173167
func (rep *Report) AggregateTimingText() string {
	var b strings.Builder
	writeSection := func(title string, samples []BarrierSample) {
		fmt.Fprintf(&b, "# Barrier %s %s\n", title, rep.Command)
		for _, s := range samples {
			fmt.Fprintf(&b, "%d: %s (%d) Entered barrier at %s\n",
				s.Rank, s.Node, s.PID, epoch(s.Entered))
			fmt.Fprintf(&b, "%d: %s (%d) Exited barrier at %s\n",
				s.Rank, s.Node, s.PID, epoch(s.Exited))
		}
	}
	writeSection("before", rep.Pre)
	writeSection("after", rep.Post)
	return b.String()
}

// EpochBase offsets simulated local times into Unix-epoch-looking values,
// matching the original tool's output (Figure 1 shows 1159808385.170918).
const EpochBase = 1159808385 * sim.Second

// epoch renders a local timestamp as epoch seconds.micros like the original
// tool. Skewed clocks can make early local times negative; the epoch base
// keeps the rendering well-formed.
func epoch(t sim.Time) string {
	ns := int64(t + EpochBase)
	neg := ""
	if ns < 0 {
		neg, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%06d", neg, ns/int64(sim.Second),
		(ns%int64(sim.Second))/1000)
}

// CallSummaryText renders the summary-count output across all ranks,
// folding the record stream without materializing it.
func (rep *Report) CallSummaryText() string {
	sum := analysis.NewCallSummary()
	n, _ := trace.Copy(sum.Sink(), rep.RecordSource())
	return sum.Format() + fmt.Sprintf("# total traced records: %d\n", n)
}

// AllRecords merges all ranks' records, unsorted: the slice wrapper over
// RecordSource.
func (rep *Report) AllRecords() []trace.Record {
	out, _ := trace.Collect(rep.RecordSource())
	return out
}

// ClockEstimates fits per-node skew and drift from the pre/post samples,
// using rank 0's clock as the reference timeline: the analysis the
// aggregate timing output exists to enable.
func (rep *Report) ClockEstimates() (map[string]clocks.Estimate, error) {
	if len(rep.Pre) == 0 || len(rep.Post) == 0 {
		return nil, fmt.Errorf("lanltrace: timing job was not run")
	}
	ref0 := rep.Pre[0].Exited
	ref1 := rep.Post[0].Exited
	out := make(map[string]clocks.Estimate)
	seen := make(map[string]bool)
	for i := range rep.Pre {
		node := rep.Pre[i].Node
		if seen[node] {
			continue
		}
		seen[node] = true
		est, err := clocks.EstimateFromSamples(
			clocks.Sample{Ref: ref0, Local: rep.Pre[i].Exited},
			clocks.Sample{Ref: ref1, Local: rep.Post[i].Exited},
		)
		if err != nil {
			return nil, fmt.Errorf("lanltrace: node %s: %w", node, err)
		}
		out[node] = est
	}
	return out, nil
}

// CorrectedTimeline returns all records mapped onto rank 0's clock and
// merged in time order.
func (rep *Report) CorrectedTimeline() ([]trace.Record, error) {
	est, err := rep.ClockEstimates()
	if err != nil {
		return nil, err
	}
	corrected := analysis.CorrectTimeline(rep.AllRecords(), est)
	sort.SliceStable(corrected, func(i, j int) bool { return corrected[i].Time < corrected[j].Time })
	return corrected, nil
}

// Classification returns the taxonomy classification of this implementation
// (matching the paper's Table 2 column for LANL-Trace). Measured overhead
// is filled in by the harness.
func (f *Framework) Classification() *core.Classification {
	return core.PaperLANLTrace()
}
