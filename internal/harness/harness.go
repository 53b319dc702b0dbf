// Package harness drives every experiment in the paper's evaluation
// section: the three LANL-Trace overhead figures (Figures 2-4), the in-text
// bandwidth-overhead table, the elapsed-time overhead range, the Tracefs
// feature-overhead measurements, the //TRACE fidelity/overhead sweep, the
// Figure 1 sample outputs, and the measured classification summary.
//
// The engine is generic on both axes: Sweep measures any registered
// framework (see internal/framework) against any registered workload (see
// internal/workload), and MatrixSweep runs every registered framework
// against every registered workload, folding the measured overheads into
// each framework's taxonomy classification through one code path. The
// named figure functions are LANL-Trace x mpi_io_test instances of Sweep.
//
// Experiments run at a scaled-down data volume by default (the simulation's
// cost is O(I/O events), and overhead *fractions* are volume-independent);
// Options.Full selects paper-scale sizes (one 100 GB shared file / N x 10 GB
// files).
package harness

import (
	"fmt"
	"strings"

	"iotaxo/internal/cluster"
	"iotaxo/internal/framework"
	"iotaxo/internal/lanltrace"
	"iotaxo/internal/sim"
	"iotaxo/internal/workload"

	// Importing the harness registers every built-in tracing framework, so
	// MatrixSweep and the command-line tools see the full registry. Tracefs
	// and //TRACE register through the direct imports in experiments.go.
	_ "iotaxo/internal/multilayer"
	_ "iotaxo/internal/pathtrace"
)

// Options configures an experiment sweep.
type Options struct {
	// Ranks is the MPI job size (paper: 32).
	Ranks int
	// PerRankBytes is each rank's data volume; the paper wrote 100 GB/N
	// per rank to a shared file and 10 GB per rank in N-N.
	PerRankBytes int64
	// BlockSizes is the sweep's x-axis in bytes.
	BlockSizes []int64
	// Seed feeds the deterministic simulation.
	Seed int64
	// Mode selects the LANL-Trace tracer for the figure experiments.
	Mode lanltrace.Mode
	// Workloads restricts the matrix's workload axis; nil means every
	// registered workload.
	Workloads []workload.Workload

	// MaxRung is the top rung of an Axis sweep's ladder (ranks on
	// RankAxis, object servers on ServerAxis): rungs double from the axis's
	// base up to MaxRung. Zero means the axis default.
	MaxRung int
	// ScaleMode selects weak scaling (fixed per-rank volume) or strong
	// scaling (fixed total volume) for RankAxis sweeps.
	ScaleMode ScaleMode

	// RanksPerNode is the placement axis: how many MPI ranks share one
	// compute node (and therefore its NIC, kernel, and local disk). Zero or
	// one means the paper's one-rank-per-node testbed.
	RanksPerNode int
	// PFSServers overrides the parallel file system's object server count;
	// zero keeps the testbed default. ServerAxis sweeps this field.
	PFSServers int

	// Cache memoizes leaf-simulation summaries across engine calls (and,
	// when the cache persists to disk, across processes). Nil gives every
	// engine call a fresh in-memory cache: in-run baseline sharing still
	// applies, but nothing is reused between calls — the right default for
	// tests and benchmarks, which must measure real simulations.
	Cache *Cache
}

// DefaultOptions returns the scaled-down sweep: 32 ranks, 16 MiB per rank,
// block sizes 64 KB to 8192 KB doubling (the figures' x-axis).
func DefaultOptions() Options {
	return Options{
		Ranks:        32,
		PerRankBytes: 16 << 20,
		BlockSizes:   []int64{64 << 10, 128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20, 8 << 20},
		Seed:         1,
		Mode:         lanltrace.ModeLtrace,
	}
}

// FullOptions returns paper-scale sizes (expensive: ~1.6 M syscalls at the
// 64 KB point).
func FullOptions() Options {
	o := DefaultOptions()
	o.PerRankBytes = 100 << 30 / 32 // one 100 GB shared file across 32 ranks
	return o
}

// QuickOptions returns a tiny sweep for unit tests and testing.B benches.
func QuickOptions() Options {
	return Options{
		Ranks:        8,
		PerRankBytes: 2 << 20,
		BlockSizes:   []int64{64 << 10, 512 << 10, 8 << 20},
		Seed:         1,
		Mode:         lanltrace.ModeLtrace,
	}
}

// MatrixSmokeOptions returns the smallest registry-wide configuration: one
// block size at 4 ranks, affordable for every framework x every workload
// under the race detector (CI's matrix-smoke step and `iotaxo -table
// matrix`).
func MatrixSmokeOptions() Options {
	o := QuickOptions()
	o.Ranks = 4
	o.PerRankBytes = 1 << 20
	o.BlockSizes = []int64{256 << 10}
	return o
}

// ranksPerNode returns the placement density, defaulted.
func (o Options) ranksPerNode() int {
	if o.RanksPerNode > 1 {
		return o.RanksPerNode
	}
	return 1
}

// clusterConfig derives the testbed configuration of one run. Ranks are
// block-placed RanksPerNode to a compute node (ceiling on the node count,
// so small rungs of the rank ladder still run when they do not fill one
// node), and PFSServers overrides the object server count when set. The
// config is the complete cluster-side input of a leaf simulation: its
// Digest (with the workload, scale, and framework) is the cache key.
func (o Options) clusterConfig() cluster.Config {
	cfg := cluster.Default()
	rpn := o.ranksPerNode()
	cfg.RanksPerNode = rpn
	cfg.ComputeNodes = (o.Ranks + rpn - 1) / rpn
	cfg.TotalRanks = o.Ranks
	if o.PFSServers > 0 {
		cfg.PFS.Servers = o.PFSServers
	}
	cfg.Seed = o.Seed
	return cfg
}

// newCluster builds a fresh testbed for one run.
func (o Options) newCluster() *cluster.Cluster {
	return cluster.New(o.clusterConfig())
}

// simKeyFor identifies one leaf simulation by its complete input set; fw is
// nil for untraced baselines.
func (o Options) simKeyFor(fw framework.Framework, w workload.Workload, sc workload.Scale) simKey {
	k := simKey{
		Workload: w.Name(),
		Scale:    sc.Digest(),
		Cluster:  o.clusterConfig().Digest(),
	}
	if fw != nil {
		k.Framework = fw.Name()
		k.Variant = framework.VariantDigest(fw)
	}
	return k
}

// scaleFor derives the workload scale at one block size.
func (o Options) scaleFor(block int64) workload.Scale {
	return workload.Scale{BlockSize: block, PerRankBytes: o.PerRankBytes}
}

// lanlFramework returns the LANL-Trace instance matching o.Mode, the tracer
// selector of the figure experiments.
func (o Options) lanlFramework() framework.Framework {
	if o.Mode == lanltrace.ModeStrace {
		return lanltrace.AsFramework(lanltrace.StraceConfig())
	}
	return lanltrace.AsFramework(lanltrace.DefaultConfig())
}

// BandwidthPoint is one x-position of a sweep (Figures 2-4 and the matrix
// cells).
type BandwidthPoint struct {
	BlockBytes       int64
	UntracedMBps     float64
	TracedMBps       float64
	UntracedElapsed  sim.Duration
	TracedElapsed    sim.Duration // total trace-production time (== traced run time for single-run frameworks)
	BandwidthOvhFrac float64      // (untraced - traced) / untraced bandwidth
	ElapsedOvhFrac   float64      // (traced - untraced) / untraced elapsed

	// Trace output volume and framework-specific extras of the traced run.
	TraceEvents int64
	TraceBytes  int64
	Runs        int // application executions the framework consumed
	Deps        int // dependency edges discovered, if the framework reveals them
	// ReplayMeasured/ReplayErr report replay fidelity for frameworks that
	// generate replayable traces.
	ReplayMeasured bool
	ReplayErr      float64
}

// FigureResult is one sweep's series: bandwidth vs block size for traced
// and untraced runs of one framework on one workload.
type FigureResult struct {
	ID        string
	Title     string
	Framework string
	Workload  string
	Points    []BandwidthPoint
}

// runUntracedAt executes one untraced benchmark run at an explicit scale.
func (o Options) runUntracedAt(w workload.Workload, sc workload.Scale) workload.Result {
	c := o.newCluster()
	return w.Run(c.World, sc)
}

// runTracedAt executes one traced benchmark run at an explicit scale
// through the generic framework interface: fresh cluster, attach, run.
func (o Options) runTracedAt(fw framework.Framework, w workload.Workload, sc workload.Scale) (framework.Report, error) {
	c := o.newCluster()
	return fw.Attach(c).Run(w.Spec(sc))
}

// runUntraced executes one untraced benchmark run of the block-size sweep.
func (o Options) runUntraced(w workload.Workload, block int64) workload.Result {
	return o.runUntracedAt(w, o.scaleFor(block))
}

// runTraced executes one traced benchmark run of the block-size sweep.
func (o Options) runTraced(fw framework.Framework, w workload.Workload, block int64) (framework.Report, error) {
	return o.runTracedAt(fw, w, o.scaleFor(block))
}

// makePoint folds one (untraced, traced) run pair into a sweep point: the
// one place overhead fractions are computed, shared by the block-size sweep
// and the rank-scaling sweep.
func makePoint(block int64, un workload.Result, rep framework.Report) BandwidthPoint {
	tr := rep.Result
	pt := BandwidthPoint{
		BlockBytes:      block,
		UntracedMBps:    un.BandwidthBps() / 1e6,
		TracedMBps:      tr.BandwidthBps() / 1e6,
		UntracedElapsed: un.Elapsed,
		TracedElapsed:   rep.TracingElapsed,
		TraceEvents:     rep.TraceEvents,
		TraceBytes:      rep.TraceBytes,
		Runs:            rep.Runs,
		Deps:            rep.Deps,
		ReplayMeasured:  rep.ReplayMeasured,
		ReplayErr:       rep.ReplayErr,
	}
	if un.BandwidthBps() > 0 {
		pt.BandwidthOvhFrac = (un.BandwidthBps() - tr.BandwidthBps()) / un.BandwidthBps()
	}
	if un.Elapsed > 0 {
		pt.ElapsedOvhFrac = float64(rep.TracingElapsed-un.Elapsed) / float64(un.Elapsed)
	}
	return pt
}

// sweepRuns collects one sweep's raw measurements, indexed by block
// position: the staging area between the scheduler's leaf tasks and point
// assembly.
type sweepRuns struct {
	uns  []workload.Result
	reps []framework.Report
	errs []error
}

func newSweepRuns(n int) *sweepRuns {
	return &sweepRuns{
		uns:  make([]workload.Result, n),
		reps: make([]framework.Report, n),
		errs: make([]error, n),
	}
}

// cacheOrEphemeral returns the options' cache, or a fresh in-memory cache
// for one engine call when none is configured.
func (o Options) cacheOrEphemeral() *Cache {
	if o.Cache != nil {
		return o.Cache
	}
	return NewCache("")
}

// simCost estimates one leaf simulation's size (roughly its simulated I/O
// event count) for the scheduler's shortest-first ordering. Traced runs pay
// for interposition and trace output on every event.
func simCost(o Options, sc workload.Scale, traced bool) int64 {
	c := int64(sc.Objects())*int64(o.Ranks) + int64(o.Ranks)
	if traced {
		c *= 3
	}
	return c
}

// taskSet stages one engine call's leaf simulations before scheduling: the
// construction-time half of the memoization layer. Identical untraced
// baselines — every framework row of a matrix needs the same one per
// workload x scale — collapse into a single task whose result fans out to
// every registered destination, so a cold full-registry matrix executes one
// untraced run per cell-column instead of one per cell. Every task then
// resolves through the cache, which adds in-flight dedup and cross-process
// reuse. Construction is single-threaded; only run() executes anything.
type taskSet struct {
	cache     *Cache
	baselines map[simKey]*fanout
	tasks     []task
}

// fanout collects every destination awaiting one shared untraced baseline.
type fanout struct {
	dsts []*workload.Result
}

func newTaskSet(c *Cache) *taskSet {
	return &taskSet{cache: c, baselines: make(map[simKey]*fanout)}
}

// untraced stages a baseline run of w at sc, fanning an already-staged
// identical run out to dst instead of scheduling a duplicate.
func (ts *taskSet) untraced(o Options, w workload.Workload, sc workload.Scale, dst *workload.Result) {
	k := o.simKeyFor(nil, w, sc)
	if f, ok := ts.baselines[k]; ok {
		f.dsts = append(f.dsts, dst)
		ts.cache.shared.Add(1)
		return
	}
	f := &fanout{dsts: []*workload.Result{dst}}
	ts.baselines[k] = f
	ts.tasks = append(ts.tasks, task{
		cost: simCost(o, sc, false),
		run: func() {
			res := ts.cache.untraced(k, func() workload.Result { return o.runUntracedAt(w, sc) })
			for _, d := range f.dsts {
				*d = res
			}
		},
	})
}

// traced stages a traced run of w under fw at sc; label contextualizes the
// error wrap ("fw, w, block 65536").
func (ts *taskSet) traced(o Options, fw framework.Framework, w workload.Workload, sc workload.Scale, label string, dst *framework.Report, errDst *error) {
	k := o.simKeyFor(fw, w, sc)
	ts.tasks = append(ts.tasks, task{
		cost: simCost(o, sc, true),
		run: func() {
			rep, err := ts.cache.traced(k, func() (framework.Report, error) { return o.runTracedAt(fw, w, sc) })
			if err != nil {
				*errDst = fmt.Errorf("harness: %s: %w", label, err)
				return
			}
			*dst = rep
		},
	})
}

// run executes the staged tasks on the shared bounded scheduler.
func (ts *taskSet) run() { sched.run(ts.tasks) }

// addSweepTasks stages the block-size sweep's leaf simulations — one shared
// untraced and one traced run per block size — writing results into runs.
// Tasks are independent, independently seeded simulations, so the scheduler
// may run them in any order or interleaving without changing any measured
// value.
func (o Options) addSweepTasks(ts *taskSet, fw framework.Framework, w workload.Workload, runs *sweepRuns) {
	for i, block := range o.BlockSizes {
		sc := o.scaleFor(block)
		ts.untraced(o, w, sc, &runs.uns[i])
		ts.traced(o, fw, w, sc,
			fmt.Sprintf("%s, %s, block %d", fw.Name(), w.Name(), block),
			&runs.reps[i], &runs.errs[i])
	}
}

// blockPoints folds one cell's completed runs into its per-block points.
func (o Options) blockPoints(runs *sweepRuns) ([]BandwidthPoint, error) {
	pts := make([]BandwidthPoint, len(o.BlockSizes))
	for i, block := range o.BlockSizes {
		if err := runs.errs[i]; err != nil {
			return pts, err
		}
		pts[i] = makePoint(block, runs.uns[i], runs.reps[i])
	}
	return pts, nil
}

// Sweep measures one framework against one workload across the options'
// block sizes: the generic engine behind the figures and the matrix. Each
// (block size, traced?) run is an independent simulation environment
// executed on the shared bounded scheduler; results are deterministic
// regardless of scheduling because every environment is seeded identically.
func Sweep(fw framework.Framework, w workload.Workload, o Options) (FigureResult, error) {
	return o.sweep("sweep", fmt.Sprintf("%s overhead, %s", fw.Name(), w.Name()), fw, w)
}

func (o Options) sweep(id, title string, fw framework.Framework, w workload.Workload) (FigureResult, error) {
	o.Workloads = []workload.Workload{w}
	m, err := MatrixSweepOf(o, fw)
	return FigureResult{
		ID: id, Title: title, Framework: fw.Name(), Workload: w.Name(),
		Points: m.Cells[0].Points,
	}, err
}

// mustSweep wraps sweep for the built-in figures, whose frameworks cannot
// fail a run.
func (o Options) mustSweep(id, title string, fw framework.Framework, w workload.Workload) FigureResult {
	fig, err := o.sweep(id, title, fw, w)
	if err != nil {
		panic(err)
	}
	return fig
}

// Figure2 regenerates Figure 2: N processes writing one shared file,
// strided — "the benchmark parameterization most demanding on the parallel
// I/O file system".
func Figure2(o Options) FigureResult {
	return o.mustSweep("fig2", "LANL-Trace overhead, N procs writing one shared file, strided", o.lanlFramework(), workload.PatternWorkload(workload.N1Strided))
}

// Figure3 regenerates Figure 3: N processes writing one shared file,
// non-strided.
func Figure3(o Options) FigureResult {
	return o.mustSweep("fig3", "LANL-Trace overhead, N procs writing one shared file, non-strided", o.lanlFramework(), workload.PatternWorkload(workload.N1NonStrided))
}

// Figure4 regenerates Figure 4: N processes writing N files.
func Figure4(o Options) FigureResult {
	return o.mustSweep("fig4", "LANL-Trace overhead, N procs writing N files", o.lanlFramework(), workload.PatternWorkload(workload.NToN))
}

// Format renders the figure as an aligned text table (the repo's stand-in
// for the paper's plots).
func (f FigureResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%10s %14s %14s %12s %12s\n",
		"block(KB)", "untraced MB/s", "traced MB/s", "bw ovh %", "elapsed ovh %")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%10d %14.1f %14.1f %12.1f %12.1f\n",
			p.BlockBytes>>10, p.UntracedMBps, p.TracedMBps,
			p.BandwidthOvhFrac*100, p.ElapsedOvhFrac*100)
	}
	return b.String()
}

// CSV renders the figure series for plotting.
func (f FigureResult) CSV() string {
	var b strings.Builder
	b.WriteString("block_kb,untraced_mbps,traced_mbps,bw_overhead_frac,elapsed_overhead_frac\n")
	for _, p := range f.Points {
		fmt.Fprintf(&b, "%d,%.3f,%.3f,%.4f,%.4f\n",
			p.BlockBytes>>10, p.UntracedMBps, p.TracedMBps, p.BandwidthOvhFrac, p.ElapsedOvhFrac)
	}
	return b.String()
}
