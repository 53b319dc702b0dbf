// Package partrace reimplements //TRACE (Mesnier et al., FAST'07) as the
// paper surveys it: a tracing framework for MPI applications that captures
// I/O system calls "using dynamic library interposition", discovers
// inter-node data dependencies "by using I/O throttling", and generates
// accurate replayable traces.
//
// Throttling works exactly as the paper describes: "manually slowing the
// response time of a single node to I/O requests associated with a
// particular parallel application and observing the behavior of other nodes
// looking for causal dependencies". Each probed rank requires one extra run
// of the application, which is why "the generation of a replayable trace is
// a time consuming process" with elapsed-time overhead "ranging between ~0%
// to 205%": the SampledRanks knob (the paper: "user-control over replay
// accuracy by using sampling for their node-throttling technique") trades
// dependency coverage — and hence replay fidelity — against total tracing
// time.
package partrace

import (
	"fmt"
	"sort"

	"iotaxo/internal/cluster"
	"iotaxo/internal/core"
	"iotaxo/internal/interpose"
	"iotaxo/internal/mpi"
	"iotaxo/internal/replay"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// Config tunes the framework.
type Config struct {
	// Model is the interposition cost; zero selects interpose.Preload.
	Model interpose.CostModel
	// ThrottleDelay is the artificial per-I/O-response delay used during
	// dependency-discovery runs.
	ThrottleDelay sim.Duration
	// SampledRanks is the number of ranks probed with throttling runs
	// (the sampling knob); 0 discovers no dependencies, -1 probes all.
	SampledRanks int
	// RawTrace, when set, receives every record of the baseline traced run
	// as it is observed — the streaming raw-trace emitter. The sink is not
	// closed by the framework; throttled discovery runs do not emit.
	RawTrace trace.Sink
}

// DefaultConfig probes two ranks, the paper's implied sweet spot (~205%
// worst-case overhead corresponds to roughly two extra runs).
func DefaultConfig() Config {
	return Config{
		Model:         interpose.Preload(),
		ThrottleDelay: 5 * sim.Millisecond,
		SampledRanks:  2,
	}
}

func (c Config) fix() Config {
	if c.Model == (interpose.CostModel{}) {
		c.Model = interpose.Preload()
	}
	if c.ThrottleDelay <= 0 {
		c.ThrottleDelay = 5 * sim.Millisecond
	}
	return c
}

// Framework is a //TRACE instance.
type Framework struct {
	cfg Config
}

// New returns a framework.
func New(cfg Config) *Framework { return &Framework{cfg: cfg.fix()} }

// Name implements the common framework interface.
func (f *Framework) Name() string { return "//TRACE" }

// Classification returns the taxonomy position (paper Table 2 column).
func (f *Framework) Classification() *core.Classification {
	return core.PaperParallelTrace()
}

// opEvent is one observed I/O call with both clocks: the local timestamp
// (what the real tool sees) and the global completion time used to order
// events across nodes when wiring dependency edges.
type opEvent struct {
	rec         trace.Record
	localStart  sim.Time
	localEnd    sim.Time
	globalStart sim.Time
	globalEnd   sim.Time
}

// ioHook is the LD_PRELOAD interposition layer for one rank.
type ioHook struct {
	model    interpose.CostModel
	throttle sim.Duration // nonzero during a dependency-discovery run
	raw      *interpose.StreamSink
	events   []opEvent
	all      []opEvent // including non-I/O MPI calls, for think-time math
	enterAt  sim.Time
}

func isIOCall(name string) bool {
	switch name {
	case "MPI_File_open", "MPI_File_write_at", "MPI_File_read_at",
		"MPI_File_write", "MPI_File_read", "MPI_File_close", "MPI_File_sync":
		return true
	}
	return false
}

// isReplayableCall reports whether the call maps to a replay op
// (replay.OpFromRecord): the op index space findDeps and buildTrace must
// share. MPI_File_sync is throttled and traced like any I/O call but has
// no replay op, so it must not shift dependency indices.
func isReplayableCall(name string) bool {
	switch name {
	case "MPI_File_open", "MPI_File_write_at", "MPI_File_read_at",
		"MPI_File_write", "MPI_File_read", "MPI_File_close":
		return true
	}
	return false
}

// Enter implements trace.Hook.
func (h *ioHook) Enter(p *sim.Proc, name string) {
	if h.model.EnterCost > 0 {
		p.Sleep(h.model.EnterCost)
	}
	h.enterAt = p.Now()
}

// Exit implements trace.Hook.
func (h *ioHook) Exit(p *sim.Proc, rec *trace.Record) {
	if h.model.ExitCost > 0 {
		p.Sleep(h.model.ExitCost)
	}
	if n := rec.EstimatedTextSize(); h.model.PerOutputByte > 0 {
		p.Sleep(sim.Duration(n) * h.model.PerOutputByte)
	}
	if h.throttle > 0 && isIOCall(rec.Name) {
		// Slow this node's I/O responses.
		p.Sleep(h.throttle)
	}
	if h.raw != nil {
		h.raw.Emit(rec)
	}
	ev := opEvent{
		rec:         rec.Clone(),
		localStart:  rec.Time,
		localEnd:    rec.Time + rec.Dur,
		globalStart: h.enterAt,
		globalEnd:   p.Now(),
	}
	h.all = append(h.all, ev)
	if isReplayableCall(rec.Name) {
		h.events = append(h.events, ev)
	}
}

// runObserved executes one traced run on a fresh cluster and returns
// per-rank hooks + elapsed.
func (f *Framework) runObserved(factory func() *cluster.Cluster, program func(*sim.Proc, *mpi.Rank), throttledRank int) ([]*ioHook, sim.Duration, error) {
	return f.runObservedOn(factory(), program, throttledRank)
}

// runObservedOn executes one traced run on the given (unused) cluster.
func (f *Framework) runObservedOn(c *cluster.Cluster, program func(*sim.Proc, *mpi.Rank), throttledRank int) ([]*ioHook, sim.Duration, error) {
	n := c.World.Size()
	var raw *interpose.StreamSink
	if f.cfg.RawTrace != nil && throttledRank < 0 {
		raw = interpose.StreamTo(f.cfg.RawTrace)
	}
	hooks := make([]*ioHook, n)
	for i := 0; i < n; i++ {
		hooks[i] = &ioHook{model: f.cfg.Model, raw: raw}
		if i == throttledRank {
			hooks[i].throttle = f.cfg.ThrottleDelay
		}
		c.World.Rank(i).Tracepoint().Attach(hooks[i])
	}
	elapsed := c.World.RunToCompletion(program)
	if raw != nil && raw.Err() != nil {
		return hooks, elapsed, fmt.Errorf("partrace: raw trace sink: %w", raw.Err())
	}
	return hooks, elapsed, nil
}

// GenResult is the output of trace generation.
type GenResult struct {
	Trace *replay.Trace
	// UntracedElapsed is the application's baseline wall time.
	UntracedElapsed sim.Duration
	// TracingElapsed is the total beginning-to-end time spent producing
	// the replayable trace (baseline traced run + all throttled runs).
	TracingElapsed sim.Duration
	// Runs counts application executions performed by the framework.
	Runs int
	// DepCount is the number of dependency edges discovered.
	DepCount int
}

// OverheadFrac is the paper's elapsed-time overhead metric for //TRACE:
// (total trace-generation time - untraced time) / untraced time.
func (g *GenResult) OverheadFrac() float64 {
	if g.UntracedElapsed <= 0 {
		return 0
	}
	return float64(g.TracingElapsed-g.UntracedElapsed) / float64(g.UntracedElapsed)
}

// Generate produces a replayable trace for the program. factory must build
// identical fresh clusters (the deterministic simulation makes repeated
// runs comparable, as repeated batch runs were on the paper's testbed).
func (f *Framework) Generate(factory func() *cluster.Cluster, program func(*sim.Proc, *mpi.Rank)) (*GenResult, error) {
	res, _, _, err := f.generate(nil, factory, program, program)
	return res, err
}

// generate is the shared trace-generation pipeline behind Generate and the
// framework-registry adapter: untraced baseline, baseline traced run
// (on base when non-nil, else a fresh cluster) executing baseProgram, then
// one throttled discovery run of program per sampled rank. It also returns
// the baseline run's hooks and elapsed time for callers that need the raw
// observation.
func (f *Framework) generate(base *cluster.Cluster, factory func() *cluster.Cluster, baseProgram, program func(*sim.Proc, *mpi.Rank)) (*GenResult, []*ioHook, sim.Duration, error) {
	// Untraced baseline (for fidelity and overhead accounting).
	untraced := factory().World.RunToCompletion(program)

	// Baseline traced run: the replayable trace's op streams.
	if base == nil {
		base = factory()
	}
	baseHooks, baseElapsed, err := f.runObservedOn(base, baseProgram, -1)
	if err != nil {
		return nil, nil, 0, err
	}
	n := len(baseHooks)

	res := &GenResult{UntracedElapsed: untraced, Runs: 1, TracingElapsed: baseElapsed}

	// Dependency discovery: throttle sampled ranks one run at a time.
	probes := f.cfg.SampledRanks
	if probes < 0 || probes > n {
		probes = n
	}
	var deps []replay.Dep
	for probe := 0; probe < probes; probe++ {
		thrHooks, thrElapsed, err := f.runObserved(factory, program, probe)
		if err != nil {
			return nil, nil, 0, err
		}
		res.Runs++
		res.TracingElapsed += thrElapsed
		deps = append(deps, f.findDeps(baseHooks, thrHooks, probe)...)
	}
	deps = dedupeDeps(deps)

	tr, err := buildTrace(baseHooks, deps, untraced)
	if err != nil {
		return nil, nil, 0, err
	}
	res.Trace = tr
	res.DepCount = len(tr.Deps)
	return res, baseHooks, baseElapsed, nil
}

// findDeps compares a throttled run against the baseline: ops on other
// ranks that shifted by at least half the throttle delay are causally
// downstream of the probed rank. Because throttle-induced delays accumulate
// across synchronization phases, each *increase* in a rank's shift marks a
// new causal edge, whose source is the probe's latest I/O completed before
// the shifted op started.
func (f *Framework) findDeps(base, throttled []*ioHook, probe int) []replay.Dep {
	var out []replay.Dep
	threshold := f.cfg.ThrottleDelay / 2
	probeOps := throttled[probe].events
	for rank := range base {
		if rank == probe {
			continue
		}
		bOps, tOps := base[rank].events, throttled[rank].events
		m := len(bOps)
		if len(tOps) < m {
			m = len(tOps)
		}
		var prevShift sim.Duration
		for k := 0; k < m; k++ {
			// Same-node comparison across runs: local clocks cancel skew.
			shift := tOps[k].localStart - bOps[k].localStart
			if shift < 0 {
				shift = 0
			}
			if shift-prevShift >= threshold {
				if j := latestBefore(probeOps, tOps[k].globalStart); j >= 0 {
					out = append(out, replay.Dep{
						FromRank: probe, FromOp: j,
						ToRank: rank, ToOp: k,
					})
				}
			}
			prevShift = shift
		}
	}
	return out
}

// latestBefore returns the index of the last op completing before t.
func latestBefore(ops []opEvent, t sim.Time) int {
	best := -1
	for j := range ops {
		if ops[j].globalEnd <= t {
			best = j
		} else {
			break
		}
	}
	return best
}

func dedupeDeps(deps []replay.Dep) []replay.Dep {
	seen := make(map[replay.Dep]bool)
	var out []replay.Dep
	for _, d := range deps {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.ToRank != b.ToRank {
			return a.ToRank < b.ToRank
		}
		return a.ToOp < b.ToOp
	})
	return out
}

// buildTrace converts observed streams into a replayable trace. The think
// time before each I/O op excludes time spent inside non-I/O MPI calls
// (barriers): //TRACE replaces synchronization with explicit dependency
// edges rather than replaying MPI.
func buildTrace(hooks []*ioHook, deps []replay.Dep, untraced sim.Duration) (*replay.Trace, error) {
	tr := &replay.Trace{
		Ranks:           len(hooks),
		Ops:             make([][]replay.Op, len(hooks)),
		Deps:            deps,
		OriginalElapsed: untraced,
	}
	for rank, h := range hooks {
		var lastIOEnd sim.Time
		var nonIO sim.Duration
		if len(h.all) > 0 {
			lastIOEnd = h.all[0].localStart
		}
		for _, ev := range h.all {
			if !isIOCall(ev.rec.Name) {
				nonIO += ev.rec.Dur
				continue
			}
			think := ev.localStart - lastIOEnd - nonIO
			if think < 0 {
				think = 0
			}
			op, ok := replay.OpFromRecord(&ev.rec)
			if ok {
				op.Compute = think
				tr.Ops[rank] = append(tr.Ops[rank], op)
			}
			lastIOEnd = ev.localEnd
			nonIO = 0
		}
	}
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("partrace: generated trace invalid: %w", err)
	}
	return tr, nil
}
