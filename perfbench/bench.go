package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// size fixes how much work one workload does. fullSize is the benchmark;
// tinySize lets the smoke tests run every workload in seconds.
type size struct {
	rankScaleRanks int   // rank-scale: ranks (one per node)
	warmRanks      int   // rank-scale: ranks of the set-up warm-up cell
	matrixRanks    int   // matrix: ranks
	matrixPerRank  int64 // matrix: bytes per rank
	queryRanks     int   // trace-query: ranks of the input simulation
	queryPerRank   int64 // trace-query: bytes per rank of the input simulation
	queriesPerKind int   // trace-query: queries of each kind per unit
	setupReps      int   // set-ups per run; setup_s is their median
	reference      bool  // check simulated statistics against reference.json
}

var fullSize = size{
	rankScaleRanks: 4096, warmRanks: 512,
	matrixRanks: 32, matrixPerRank: 2 << 20,
	queryRanks: 32, queryPerRank: 64 << 20, queriesPerKind: 3,
	setupReps: 3, reference: true,
}

var tinySize = size{
	rankScaleRanks: 64, warmRanks: 8,
	matrixRanks: 4, matrixPerRank: 256 << 10,
	queryRanks: 4, queryPerRank: 1 << 20, queriesPerKind: 1,
	setupReps: 1,
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string // where the traced run writes its spans; "" writes none
	size     size
}

// benchWorkload is one named benchmark workload. setup builds the inputs (it is
// repeated size.setupReps times); unit runs one closed-loop unit and
// returns the host time of its timed calls; layers runs the traced run's
// extra passes and fills the per-layer metrics.
type benchWorkload interface {
	setup(b *bench) error
	unit(b *bench) time.Duration
	layers(b *bench) error
}

var workloads = map[string]func() benchWorkload{
	"rank-scale":  func() benchWorkload { return &rankScale{} },
	"matrix":      func() benchWorkload { return &matrix{} },
	"trace-query": func() benchWorkload { return &traceQuery{} },
}

// goStats is a sample of the process and Go runtime counters the
// benchmark reports.
type goStats struct{ cpu, allocBytes, mallocs, gcCPU float64 }

var goSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readGo() goStats {
	metrics.Read(goSamples)
	v := func(i int) float64 {
		switch goSamples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(goSamples[i].Value.Uint64())
		case metrics.KindFloat64:
			return goSamples[i].Value.Float64()
		}
		return 0
	}
	return goStats{processCPU(), v(0), v(1), v(2)}
}

// processCPU is the process's user plus system CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// bench is the state of one run: the tracer, the operation tally, the
// per-unit samples and the per-layer metrics the workload fills in.
type bench struct {
	cfg config
	tr  *tracer
	ref map[string]float64 // reference statistics for this workload and seed

	attempted, failed int
	first             map[string]map[string]float64 // first value of each checked statistics set

	cur   goStats // Go counters accumulated over the current unit's timed calls
	units []float64
	goPer []goStats
	layer map[string]float64
}

func newBench(cfg config) (*bench, error) {
	b := &bench{
		cfg:   cfg,
		tr:    newTracer(cfg.trace),
		first: make(map[string]map[string]float64),
		layer: make(map[string]float64),
	}
	if cfg.size.reference {
		ref, err := loadReference()
		if err != nil {
			return nil, err
		}
		b.ref = ref.forSeed(cfg.workload, cfg.seed)
	}
	return b, nil
}

// call times one public call of the system under test inside a span and
// adds its Go runtime cost to the current unit.
func (b *bench) call(name string, fn func() error) (time.Duration, error) {
	g0 := readGo()
	d, err := b.tr.timed(name, fn)
	g1 := readGo()
	b.cur.cpu += g1.cpu - g0.cpu
	b.cur.allocBytes += g1.allocBytes - g0.allocBytes
	b.cur.mallocs += g1.mallocs - g0.mallocs
	b.cur.gcCPU += g1.gcCPU - g0.gcCPU
	return d, err
}

// op counts one attempted operation and, when err is set, its failure.
func (b *bench) op(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
}

// checkStats compares a set of simulated statistics with the first set the
// run produced under the same key (a perf-only change must leave them
// identical from unit to unit) and with the stored reference for the seed.
func (b *bench) checkStats(key string, got map[string]float64) error {
	if prev, ok := b.first[key]; ok {
		for k, v := range got {
			if prev[k] != v {
				return fmt.Errorf("%s: %s = %v, first unit had %v", key, k, v, prev[k])
			}
		}
	} else {
		b.first[key] = got
	}
	for k, v := range got {
		if want, ok := b.ref[key+"."+k]; ok && want != v {
			return fmt.Errorf("%s: %s = %v, reference for seed %d is %v", key, k, v, b.cfg.seed, want)
		}
	}
	return nil
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run executes one benchmark invocation and writes its result line.
func run(cfg config, stdout io.Writer) (*bench, error) {
	mk, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}

	var setups []float64
	var w benchWorkload
	for i := 0; i < cfg.size.setupReps; i++ {
		// Each set-up builds a fresh workload; the previous one is garbage
		// before it starts.
		w = nil
		runtime.GC()
		w = mk()
		d, err := b.tr.timed("setup", func() error { return w.setup(b) })
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.workload, err)
		}
		setups = append(setups, d.Seconds())
	}

	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(b.units) == 0 || time.Now().Before(deadline) {
		// Every unit starts from a collected heap, so the garbage of one
		// unit does not pace the collector of the next.
		runtime.GC()
		b.cur = goStats{}
		start := b.tr.begin("unit")
		d := w.unit(b)
		b.tr.end(start)
		b.units = append(b.units, d.Seconds())
		b.goPer = append(b.goPer, b.cur)
	}

	out := make(map[string]float64)
	if cfg.trace {
		if err := w.layers(b); err != nil {
			return nil, fmt.Errorf("%s layers: %w", cfg.workload, err)
		}
		b.tr.finish()
		b.layer["bench.units"] = float64(len(b.units))
		b.layer["bench.traced_unit_s"] = median(b.units)
		b.layer["bench.self_s"] = median(b.tr.selfPerRoot("unit"))
		b.layer["error_rate"] = float64(b.failed) / float64(max(b.attempted, 1))
		b.layer["go.alloc_mb"] = median(pick(b.goPer, func(g goStats) float64 { return g.allocBytes / 1e6 }))
		b.layer["go.mallocs"] = median(pick(b.goPer, func(g goStats) float64 { return g.mallocs }))
		b.layer["go.gc_cpu_s"] = median(pick(b.goPer, func(g goStats) float64 { return g.gcCPU }))
		for _, m := range perLayer {
			out[m.Name] = b.layer[m.Name]
		}
		if err := b.tr.write(cfg.spansDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	} else {
		out["setup_s"] = median(setups)
		out["unit_s"] = median(b.units)
		out["unit_cpu_s"] = median(pick(b.goPer, func(g goStats) float64 { return g.cpu }))
		out["peak_rss_mb"] = peakRSSMB()
	}

	res := result{
		Correct:   b.failed == 0 && b.attempted > 0,
		Attempted: max(b.attempted, 1),
		Failed:    b.failed,
		Metrics:   make(map[string]metric, len(out)),
	}
	for name, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", name, v)
		}
		res.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d units, setups %v, units %v\n",
		cfg.workload, cfg.seed, len(b.units), fmtSecs(setups), fmtSecs(b.units))
	line, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return b, err
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates the q-quantile of xs (0 for an empty set).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func pick[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func fmtSecs(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s + "]"
}
