package harness

import (
	"fmt"
	"strings"

	"iotaxo/internal/framework"
	"iotaxo/internal/workload"
)

// This file is the overhead-vs-X engine. The paper's evaluation fixes the
// job at 32 ranks and one file system, but its taxonomy is about how
// tracing frameworks behave as the system around them changes. An Axis
// names one such dimension — a doubling ladder of integer rungs and how a
// rung reconfigures a run — and the engine below measures every framework x
// workload pair along it through the shared bounded scheduler. Two axes
// ship:
//
//   - RankAxis grows the job: ranks double from 4 to Options.MaxRung at a
//     fixed block size, in weak mode (fixed per-rank volume) or strong mode
//     (fixed total volume).
//   - ServerAxis grows the storage: the job stays fixed and the parallel
//     file system's object server count doubles from 1 to Options.MaxRung.
//     Overhead is relative to the untraced run at the same server count, so
//     each rung isolates how interposition cost composes with storage
//     parallelism: a tracer whose stalls hide behind a saturated 1-server
//     file system may dominate once 16 servers absorb the I/O.
//
// Nothing here branches on which axis it serves; a new axis is one more
// Axis value.

// Axis is one swept dimension of the overhead-vs-X experiments.
type Axis struct {
	id     string // series ID in table headers
	vs     string // what the title measures overhead against
	matrix string // the matrix header's noun
	// min is the ladder's base rung; defaultMax is its top rung when
	// Options.MaxRung is zero.
	min, defaultMax int
	// columns are the x-side table columns, the rung itself first.
	columns []axisColumn
	// rung returns the options and workload scale of the runs at rung x.
	// The options carry the rung, so cache keys fingerprint its actual
	// testbed and the scheduler's shortest-first ordering sees its size.
	rung func(o Options, x int) (Options, workload.Scale)
	// setting renders what a series holds fixed, for its header.
	setting func(o Options) string
}

// axisColumn is one x-side column of an axis series' table and CSV.
type axisColumn struct {
	head  string // text table header
	csv   string // CSV header
	width int    // text table width
	value func(AxisPoint) int64
}

// RankAxis sweeps the MPI job size: the scalability axis.
var RankAxis = Axis{
	id: "scale", vs: "ranks", matrix: "scaling",
	min: minScaleRanks, defaultMax: DefaultMaxRanks,
	columns: []axisColumn{
		{"ranks", "ranks", 8, func(p AxisPoint) int64 { return int64(p.X) }},
		{"per-rank(KB)", "per_rank_kb", 12, func(p AxisPoint) int64 { return p.PerRankBytes >> 10 }},
	},
	rung: func(o Options, ranks int) (Options, workload.Scale) {
		ro := o
		ro.Ranks = ranks
		return ro, o.scaleRung(ranks)
	},
	setting: func(o Options) string { return o.ScaleMode.String() + " scaling" },
}

// ServerAxis sweeps the parallel file system's object server count at a
// fixed job: the storage-scaling axis.
var ServerAxis = Axis{
	id: "servers", vs: "PFS servers", matrix: "server-count",
	min: 1, defaultMax: DefaultMaxServers,
	columns: []axisColumn{
		{"servers", "servers", 8, func(p AxisPoint) int64 { return int64(p.X) }},
	},
	rung: func(o Options, servers int) (Options, workload.Scale) {
		so := o
		so.PFSServers = servers
		return so, o.scaleFor(o.scaleBlock())
	},
	setting: func(o Options) string { return fmt.Sprintf("%d ranks", o.Ranks) },
}

// ScaleMode selects how data volume scales with the rank count.
type ScaleMode int

const (
	// WeakScaling fixes the per-rank volume: total volume grows with the
	// job, the checkpoint-style regime most HPC I/O scales in.
	WeakScaling ScaleMode = iota
	// StrongScaling fixes the total volume (the ladder's base job size
	// Ranks x PerRankBytes), divided evenly across ranks.
	StrongScaling
)

// String implements fmt.Stringer with the CLI tokens.
func (m ScaleMode) String() string {
	if m == StrongScaling {
		return "strong"
	}
	return "weak"
}

// ParseScaleMode inverts String for the -scale-mode flags.
func ParseScaleMode(s string) (ScaleMode, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "weak", "":
		return WeakScaling, true
	case "strong":
		return StrongScaling, true
	}
	return WeakScaling, false
}

// DefaultMaxRanks is the rank ladder's default top rung.
const DefaultMaxRanks = 512

// minScaleRanks is the rank ladder's base rung.
const minScaleRanks = 4

// DefaultMaxServers is the server ladder's default top rung, chosen to
// bracket the paper testbed's 12 object servers.
const DefaultMaxServers = 16

// ScaleOptions returns the default rank-sweep configuration: 64 KB blocks,
// 1 MiB per rank at every rung (weak) or 4 ranks x 1 MiB total (strong),
// rank ladder 4 doubling to 512. Event counts stay proportional to ranks,
// so the top rung is CI-affordable.
func ScaleOptions() Options {
	o := DefaultOptions()
	o.Ranks = minScaleRanks
	o.PerRankBytes = 1 << 20
	o.BlockSizes = []int64{64 << 10}
	o.MaxRung = DefaultMaxRanks
	return o
}

// ScaleSmokeOptions returns the smallest rank ladder (4 to 16 ranks,
// 256 KiB per rank), affordable for the full registry under the race
// detector: CI's scaling-smoke step.
func ScaleSmokeOptions() Options {
	o := ScaleOptions()
	o.PerRankBytes = 256 << 10
	o.MaxRung = 16
	return o
}

// ServerOptions returns the default server-sweep configuration: the paper's
// 32-rank job, 64 KB blocks, 1 MiB per rank, server ladder 1 doubling to 16.
func ServerOptions() Options {
	o := DefaultOptions()
	o.PerRankBytes = 1 << 20
	o.BlockSizes = []int64{64 << 10}
	o.MaxRung = DefaultMaxServers
	return o
}

// ServerSmokeOptions returns the smallest server ladder (1 to 4 servers, 8
// ranks, 256 KiB per rank), affordable for the full registry under the race
// detector: CI's server-sweep smoke step.
func ServerSmokeOptions() Options {
	o := ServerOptions()
	o.Ranks = 8
	o.PerRankBytes = 256 << 10
	o.MaxRung = 4
	return o
}

// ladder returns the axis's x-values: doubling from the base rung to
// Options.MaxRung (defaulted), with the top rung always included.
func (a Axis) ladder(o Options) []int {
	top := o.MaxRung
	if top <= 0 {
		top = a.defaultMax
	}
	return doublingLadder(a.min, top)
}

// doublingLadder returns a sweep x-axis doubling from min toward max, with
// max itself always the top rung even when it is off the doubling grid.
func doublingLadder(min, max int) []int {
	var ladder []int
	for v := min; v < max; v *= 2 {
		ladder = append(ladder, v)
	}
	if n := len(ladder); n == 0 || ladder[n-1] < max {
		ladder = append(ladder, max)
	}
	return ladder
}

// scaleBlock is the fixed block size of the axis sweeps: the first
// configured block size.
func (o Options) scaleBlock() int64 {
	if len(o.BlockSizes) > 0 {
		return o.BlockSizes[0]
	}
	return 64 << 10
}

// scaleRung derives one rank rung's scale from the mode: weak keeps
// PerRankBytes per rank; strong divides the ladder-base total (base rung x
// PerRankBytes) across the rung's ranks, flooring at one block per rank.
func (o Options) scaleRung(ranks int) workload.Scale {
	block := o.scaleBlock()
	if o.ScaleMode == StrongScaling {
		return workload.StrongScale(block, o.PerRankBytes*int64(minScaleRanks), ranks)
	}
	return workload.WeakScale(block, o.PerRankBytes)
}

// ResolveScaleOptions builds the rank-sweep configuration from CLI flag
// values, shared by `iotaxo -exp scaling` and `tracebench -exp scaling` so
// the two front ends cannot drift: mode must parse, maxRanks overrides the
// top rung when positive, ranksPerNode sets the placement density (0/1 is
// the paper's one-rank-per-node testbed), and the workload token selects
// the column axis (see resolveWorkloadAxis).
func ResolveScaleOptions(base Options, mode string, maxRanks, ranksPerNode int, workloadName string) (Options, error) {
	sm, ok := ParseScaleMode(mode)
	if !ok {
		return base, fmt.Errorf("unknown scale mode %q (have weak, strong)", mode)
	}
	o := base
	o.ScaleMode = sm
	err := o.resolveAxis(maxRanks, ranksPerNode, workloadName)
	return o, err
}

// ResolveServerOptions builds the server-sweep configuration from CLI flag
// values, shared by `iotaxo -exp servers` and `tracebench -exp servers`:
// maxServers and ranks override when positive, and ranksPerNode and the
// workload token mean what they mean for ResolveScaleOptions.
func ResolveServerOptions(base Options, maxServers, ranks, ranksPerNode int, workloadName string) (Options, error) {
	o := base
	if ranks > 0 {
		o.Ranks = ranks
	}
	err := o.resolveAxis(maxServers, ranksPerNode, workloadName)
	return o, err
}

// resolveAxis applies the flags every axis sweep shares: the top rung and
// the placement density override when positive (negative placement is an
// error), and the workload token selects the column axis.
func (o *Options) resolveAxis(maxRung, ranksPerNode int, workloadName string) error {
	if maxRung > 0 {
		o.MaxRung = maxRung
	}
	if ranksPerNode < 0 {
		return fmt.Errorf("ranks per node must be >= 1 (0 keeps the default), got %d", ranksPerNode)
	}
	if ranksPerNode > 0 {
		o.RanksPerNode = ranksPerNode
	}
	return o.resolveWorkloadAxis(workloadName)
}

// resolveWorkloadAxis applies the -workload token with the axis sweeps'
// semantics: empty means the paper's most demanding pattern (N-1 strided,
// keeping default runs affordable), "all" the whole registry, anything else
// one registered scenario.
func (o *Options) resolveWorkloadAxis(workloadName string) error {
	switch workloadName {
	case "":
		o.Workloads = []workload.Workload{workload.PatternWorkload(workload.N1Strided)}
	case "all":
		o.Workloads = nil // full workload registry
	default:
		w, ok := workload.ByName(workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q (have all, %s)",
				workloadName, strings.Join(workload.Names(), ", "))
		}
		o.Workloads = []workload.Workload{w}
	}
	return nil
}

// placementLabel renders the ", N ranks/node" table-header suffix for
// multi-rank-per-node series; default one-rank-per-node output is unchanged.
func placementLabel(ranksPerNode int) string {
	if ranksPerNode > 1 {
		return fmt.Sprintf(", %d ranks/node", ranksPerNode)
	}
	return ""
}

// AxisPoint is one rung of an axis sweep.
type AxisPoint struct {
	X            int   // the rung: ranks on RankAxis, object servers on ServerAxis
	PerRankBytes int64 // realized per-rank volume (after the one-block floor)
	BandwidthPoint
}

// AxisResult is one framework x workload overhead-vs-rung series: the axis
// counterpart of FigureResult.
type AxisResult struct {
	ID        string
	Title     string
	Framework string
	Workload  string
	// Setting is what the series holds fixed: "weak scaling" on RankAxis,
	// "8 ranks" on ServerAxis.
	Setting      string
	Block        int64
	RanksPerNode int // placement density; 1 is one rank per node
	Points       []AxisPoint

	columns []axisColumn
}

// Sweep measures one framework against one workload along the axis at a
// fixed block size. Every (rung, traced?) run is an independently seeded
// simulation executed on the shared bounded scheduler, so output is
// deterministic and peak concurrency is PoolSize.
func (a Axis) Sweep(fw framework.Framework, w workload.Workload, o Options) (AxisResult, error) {
	o.Workloads = []workload.Workload{w}
	series, _, err := a.matrixSweepOf(o, fw)
	return series[0], err
}

// addRung stages rung i (at x) of one series: one shared untraced and one
// traced run.
func (a Axis) addRung(o Options, ts *taskSet, fw framework.Framework, w workload.Workload, runs *sweepRuns, i, x int) {
	ro, sc := a.rung(o, x)
	ts.untraced(ro, w, sc, &runs.uns[i])
	ts.traced(ro, fw, w, sc,
		fmt.Sprintf("%s, %s, %s %d", fw.Name(), w.Name(), a.columns[0].csv, x),
		&runs.reps[i], &runs.errs[i])
}

// assemble folds one series' completed rung runs into its points.
func (a Axis) assemble(o Options, fw framework.Framework, w workload.Workload, runs *sweepRuns) (AxisResult, error) {
	ladder := a.ladder(o)
	res := AxisResult{
		ID:           a.id,
		Title:        fmt.Sprintf("%s overhead vs %s, %s", fw.Name(), a.vs, w.Name()),
		Framework:    fw.Name(),
		Workload:     w.Name(),
		Setting:      a.setting(o),
		Block:        o.scaleBlock(),
		RanksPerNode: o.ranksPerNode(),
		Points:       make([]AxisPoint, len(ladder)),
		columns:      a.columns,
	}
	for i, x := range ladder {
		if err := runs.errs[i]; err != nil {
			return res, err
		}
		_, sc := a.rung(o, x)
		res.Points[i] = AxisPoint{
			X:              x,
			PerRankBytes:   int64(sc.Objects()) * sc.BlockSize,
			BandwidthPoint: makePoint(sc.BlockSize, runs.uns[i], runs.reps[i]),
		}
	}
	return res, nil
}

// Placement renders the series' ", N ranks/node" header suffix — empty for
// the default one-rank-per-node placement. CSV consumers append it to their
// own series headers so multi-rank-per-node data stays distinguishable.
func (r AxisResult) Placement() string { return placementLabel(r.RanksPerNode) }

// Format renders the series as an aligned text table, mirroring
// FigureResult.Format with the axis's columns on the x side.
func (r AxisResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: %s (%s, block %d KB%s)\n", r.ID, r.Title, r.Setting, r.Block>>10, r.Placement())
	for i, c := range r.columns {
		fmt.Fprintf(&b, "%s%*s", sep(i, " "), c.width, c.head)
	}
	fmt.Fprintf(&b, " %14s %14s %12s %12s\n", "untraced MB/s", "traced MB/s", "bw ovh %", "elapsed ovh %")
	for _, p := range r.Points {
		for i, c := range r.columns {
			fmt.Fprintf(&b, "%s%*d", sep(i, " "), c.width, c.value(p))
		}
		fmt.Fprintf(&b, " %14.1f %14.1f %12.1f %12.1f\n",
			p.UntracedMBps, p.TracedMBps, p.BandwidthOvhFrac*100, p.ElapsedOvhFrac*100)
	}
	return b.String()
}

// CSV renders the series for plotting, mirroring FigureResult.CSV.
func (r AxisResult) CSV() string {
	var b strings.Builder
	for i, c := range r.columns {
		b.WriteString(sep(i, ",") + c.csv)
	}
	b.WriteString(",untraced_mbps,traced_mbps,bw_overhead_frac,elapsed_overhead_frac\n")
	for _, p := range r.Points {
		for i, c := range r.columns {
			fmt.Fprintf(&b, "%s%d", sep(i, ","), c.value(p))
		}
		fmt.Fprintf(&b, ",%.3f,%.3f,%.4f,%.4f\n",
			p.UntracedMBps, p.TracedMBps, p.BandwidthOvhFrac, p.ElapsedOvhFrac)
	}
	return b.String()
}

// sep returns the separator that precedes column i: none before the first.
func sep(i int, s string) string {
	if i == 0 {
		return ""
	}
	return s
}

// AxisMatrixResult is one overhead-vs-rung series per framework x workload
// pair, row-major in framework order. Each series carries its own
// framework/workload labels, so the result is just the flattened list.
type AxisMatrixResult struct {
	Series []AxisResult
	// Stats is the sweep's cache/scheduler accounting, reported beside the
	// measurements (never inside Format, which must stay byte-identical
	// between cold and warm runs).
	Stats SweepStats

	header string
}

// MatrixSweep runs the axis sweep for every registered framework on every
// registered workload (Options.Workloads restricts the column axis). All
// series' runs are staged into one task set for the shared bounded
// scheduler — sharing untraced baselines across framework rows and
// memoizing through Options.Cache — so peak concurrency stays at PoolSize
// however large the registries grow.
func (a Axis) MatrixSweep(o Options) (AxisMatrixResult, error) {
	series, stats, err := a.matrixSweepOf(o, framework.All()...)
	return AxisMatrixResult{
		Series: series,
		Stats:  stats,
		header: fmt.Sprintf("framework x workload %s matrix", a.matrix),
	}, err
}

// matrixSweepOf runs the axis's ladder for fws x the options' workloads.
func (a Axis) matrixSweepOf(o Options, fws ...framework.Framework) ([]AxisResult, SweepStats, error) {
	ladder := a.ladder(o)
	return matrixSweepOf(o, fws, len(ladder),
		func(ts *taskSet, fw framework.Framework, w workload.Workload, runs *sweepRuns) {
			for i, x := range ladder {
				a.addRung(o, ts, fw, w, runs, i, x)
			}
		},
		func(fw framework.Framework, w workload.Workload, runs *sweepRuns) (AxisResult, error) {
			return a.assemble(o, fw, w, runs)
		})
}

// Format renders every series' table under one header, separated by blank
// lines, in matrix (framework-major) order.
func (m AxisMatrixResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (%d series)\n", m.header, len(m.Series))
	for _, s := range m.Series {
		b.WriteByte('\n')
		b.WriteString(s.Format())
	}
	return b.String()
}
