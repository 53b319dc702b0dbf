package iotaxo_test

// One benchmark per table and figure of the paper's evaluation section,
// plus ablation benchmarks and micro-benchmarks of the
// hot library paths. Benchmarks run heavily scaled-down configurations so
// `go test -bench=. -benchmem` completes quickly; the key experimental
// quantity of each benchmark is exposed via b.ReportMetric, and
// cmd/tracebench regenerates the full tables.

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"iotaxo/internal/cluster"
	"iotaxo/internal/core"
	"iotaxo/internal/disk"
	"iotaxo/internal/framework"
	"iotaxo/internal/harness"
	"iotaxo/internal/interpose"
	"iotaxo/internal/lanltrace"
	"iotaxo/internal/mpi"
	"iotaxo/internal/partrace"
	"iotaxo/internal/replay"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/tracefs"
	"iotaxo/internal/workload"
)

// benchOptions is the smallest configuration that still exhibits the
// paper's overhead shapes.
func benchOptions() harness.Options {
	return harness.Options{
		Ranks:        4,
		PerRankBytes: 1 << 20,
		BlockSizes:   []int64{64 << 10, 1 << 20},
		Seed:         1,
		Mode:         lanltrace.ModeLtrace,
	}
}

// --- FIG1: sample outputs ---

func BenchmarkFigure1_SampleOutputs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := harness.Figure1(benchOptions())
		if !strings.Contains(out.Raw, "SYS_pwrite") {
			b.Fatal("figure 1 raw output malformed")
		}
	}
}

// --- FIG2/FIG3/FIG4: bandwidth vs block size, traced vs untraced ---

func benchFigure(b *testing.B, fig func(harness.Options) harness.FigureResult) {
	var lastOvh float64
	for i := 0; i < b.N; i++ {
		res := fig(benchOptions())
		lastOvh = res.Points[0].BandwidthOvhFrac
	}
	b.ReportMetric(lastOvh*100, "ovh64KB_%")
}

func BenchmarkFigure2_N1Strided(b *testing.B)    { benchFigure(b, harness.Figure2) }
func BenchmarkFigure3_N1NonStrided(b *testing.B) { benchFigure(b, harness.Figure3) }
func BenchmarkFigure4_NN(b *testing.B)           { benchFigure(b, harness.Figure4) }

// --- TAB1/TAB2: taxonomy tables ---

func BenchmarkTable1_Template(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(core.Table1Template()) == 0 {
			b.Fatal("empty template")
		}
	}
}

func BenchmarkTable2_Summary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !strings.Contains(core.PaperTable2(), "//TRACE") {
			b.Fatal("table 2 malformed")
		}
	}
}

// --- TXT-OV: in-text bandwidth overhead table ---

func BenchmarkInTextOverheadTable(b *testing.B) {
	o := benchOptions()
	var small, large float64
	for i := 0; i < b.N; i++ {
		res := harness.InTextOverheads(o)
		small = res.Cells[0].BwOvhFrac
		large = res.Cells[1].BwOvhFrac
	}
	b.ReportMetric(small*100, "ovh64KB_%")
	b.ReportMetric(large*100, "ovh8MB_%")
}

// --- TXT-ELAPSED: elapsed-time overhead range ---

func BenchmarkElapsedTimeRange(b *testing.B) {
	o := benchOptions()
	var mn, mx float64
	for i := 0; i < b.N; i++ {
		res := harness.ElapsedRange(o)
		mn, mx = res.Min, res.Max
	}
	b.ReportMetric(mn*100, "min_%")
	b.ReportMetric(mx*100, "max_%")
}

// --- TXT-TRACEFS: Tracefs overhead and feature ablation ---

func BenchmarkTracefsOverhead(b *testing.B) {
	o := benchOptions()
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = harness.TracefsExperiment(o).MaxOverhead()
	}
	b.ReportMetric(worst*100, "worst_%")
}

func BenchmarkTracefsFeatureAblation(b *testing.B) {
	// Isolated ablation: the marginal cost of each output-pipeline feature
	// on a fixed stream of records, without the workload around it.
	recs := make([]trace.Record, 256)
	for i := range recs {
		recs[i] = trace.Record{
			Name: "VFS_write", Path: "/work/f001", Offset: int64(i) * 8192,
			Bytes: 8192, Args: []string{`"/work/f001"`, "0", "8192"},
		}
	}
	for _, cfg := range []struct {
		name     string
		compress bool
	}{{"plain", false}, {"compressed", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var buf bytes.Buffer
				w := trace.NewBinaryWriter(&buf, trace.BinaryOptions{Compress: cfg.compress})
				for j := range recs {
					w.Write(&recs[j])
				}
				w.Close()
			}
		})
	}
}

// --- TXT-PTRACE: //TRACE fidelity/overhead frontier ---

func BenchmarkParallelTraceFidelity(b *testing.B) {
	factory := func() *cluster.Cluster {
		cfg := cluster.Default()
		cfg.ComputeNodes = 4
		return cluster.New(cfg)
	}
	params := workload.Params{
		Pattern: workload.N1Strided, BlockSize: 128 << 10, NObj: 4,
		Path: "/pfs/bench.out", BarrierEvery: 2,
	}
	program := func(p *sim.Proc, r *mpi.Rank) { workload.Program(p, r, params, nil) }
	var fid float64
	for i := 0; i < b.N; i++ {
		cfg := partrace.DefaultConfig()
		cfg.SampledRanks = 4
		gen, err := partrace.New(cfg).Generate(factory, program)
		if err != nil {
			b.Fatal(err)
		}
		res, err := replay.Execute(factory(), gen.Trace)
		if err != nil {
			b.Fatal(err)
		}
		fid = replay.Fidelity(gen.Trace.OriginalElapsed, res.Elapsed)
	}
	b.ReportMetric(fid*100, "fidelity_err_%")
}

// --- MATRIX: framework x workload overhead matrix ---

// BenchmarkMatrixSweep measures every registered framework on every
// registered workload through the one generic sweep path: the engine
// behind `tracebench -exp matrix` and the measured Table 2. One
// sub-benchmark per workload keeps the BENCH series tracking the full
// matrix as the workload axis grows.
func BenchmarkMatrixSweep(b *testing.B) {
	for _, w := range workload.All() {
		w := w
		b.Run(w.Name(), func(b *testing.B) {
			o := harness.MatrixSmokeOptions()
			o.Workloads = []workload.Workload{w}
			var cells int
			for i := 0; i < b.N; i++ {
				m, err := harness.MatrixSweep(o)
				if err != nil {
					b.Fatal(err)
				}
				cells = len(m.Cells)
				if cells == 0 {
					b.Fatal("empty matrix")
				}
			}
			b.ReportMetric(float64(cells), "cells")
			b.ReportMetric(float64(cells/len(o.Workloads)), "frameworks")
		})
	}
}

// BenchmarkMatrixSweepWarm measures the memoized sweep path: a shared
// cache is populated once, then every iteration re-runs the full-registry
// smoke matrix against it, so the engine schedules zero simulations and
// the benchmark isolates sweep assembly plus cache lookups — the floor a
// warm `tracebench -exp matrix` pays.
func BenchmarkMatrixSweepWarm(b *testing.B) {
	o := harness.MatrixSmokeOptions()
	o.Cache = harness.NewCache("")
	if _, err := harness.MatrixSweep(o); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var hits int64
	for i := 0; i < b.N; i++ {
		m, err := harness.MatrixSweep(o)
		if err != nil {
			b.Fatal(err)
		}
		if m.Stats.Executed != 0 {
			b.Fatalf("warm sweep executed %d simulations, want 0", m.Stats.Executed)
		}
		hits = m.Stats.Hits()
	}
	b.ReportMetric(float64(hits), "cache_hits")
}

// --- SCALING: overhead vs rank count ---

// BenchmarkScaleSweep measures the rank-scaling engine on a small ladder:
// the engine behind `tracebench -exp scaling` and `iotaxo -exp scaling`.
// The key metric is the top rung's elapsed overhead; wall time per op
// tracks whether the hot-path trims keep high-rank rungs CI-affordable.
func BenchmarkScaleSweep(b *testing.B) {
	for _, mode := range []harness.ScaleMode{harness.WeakScaling, harness.StrongScaling} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			o := harness.ScaleSmokeOptions()
			o.ScaleMode = mode
			var topOvh float64
			for i := 0; i < b.N; i++ {
				res, err := harness.RankAxis.Sweep(
					workloadFramework(), workload.PatternWorkload(workload.N1Strided), o)
				if err != nil {
					b.Fatal(err)
				}
				top := res.Points[len(res.Points)-1]
				if top.X != 16 {
					b.Fatalf("top rung = %d ranks", top.X)
				}
				topOvh = top.ElapsedOvhFrac
			}
			b.ReportMetric(topOvh*100, "ovh16ranks_%")
		})
	}
}

// workloadFramework returns the tracer the scaling benchmarks sweep:
// LANL-Trace, the paper's headline (and costliest single-run) framework.
func workloadFramework() framework.Framework {
	return framework.MustLookup("LANL-Trace")
}

// benchSimRanks drives one untraced job (one 64 KB object per rank) end to
// end — cluster construction included — at the given rank count. It is the
// proving-ground benchmark for the per-event hot paths: rank counts past
// the scaling ladder's default top rung must stay affordable for CI.
func benchSimRanks(b *testing.B, ranks int) {
	cfg := cluster.Default()
	cfg.ComputeNodes = ranks
	params := workload.Params{
		Pattern: workload.NToN, BlockSize: 64 << 10, NObj: 1,
		Path: fmt.Sprintf("/pfs/scale%d", ranks),
	}
	var events float64
	for i := 0; i < b.N; i++ {
		c := cluster.New(cfg)
		res := workload.Run(c.World, params)
		if res.Ranks != ranks || res.Bytes != int64(ranks)*params.BlockSize {
			b.Fatalf("ranks=%d bytes=%d", res.Ranks, res.Bytes)
		}
		if n := c.Env.Spawned("net.courier"); n != 0 {
			b.Fatalf("%d courier procs spawned, want 0", n)
		}
		var n int64
		for _, k := range c.Kernels {
			n += k.SyscallCount
		}
		events = float64(n)
	}
	b.ReportMetric(events, "syscalls")
	b.ReportMetric(events/float64(ranks), "syscalls/rank")
}

func BenchmarkSim1024Ranks(b *testing.B) { benchSimRanks(b, 1024) }

// BenchmarkSim4096Ranks is the scaling ladder's new top rung, reachable now
// that network message delivery is a pure event chain (zero goroutines and
// zero Proc allocations per message) instead of one courier goroutine per
// in-flight message.
func BenchmarkSim4096Ranks(b *testing.B) { benchSimRanks(b, 4096) }

// BenchmarkSim16384Ranks is the ladder's CI smoke rung, reachable now that
// the PFS servers and RAID arrays serve requests as pure event chains and
// cluster construction draws ranks, interfaces, and mailboxes from
// preallocated slabs.
func BenchmarkSim16384Ranks(b *testing.B) { benchSimRanks(b, 16384) }

// BenchmarkSim65536Ranks is the ladder's top: the rank regime modern
// tracers target, two orders of magnitude past the paper's testbed.
// Skipped in -short (CI's benchmark smoke) — roughly 40 s per iteration;
// run it manually with `go test -run NONE -bench Sim65536Ranks .`.
func BenchmarkSim65536Ranks(b *testing.B) {
	if testing.Short() {
		b.Skip("65536-rank rung skipped in -short mode")
	}
	benchSimRanks(b, 65536)
}

// BenchmarkServerSweep measures the storage-scaling engine on the smoke
// ladder: the engine behind `tracebench -exp servers` and `iotaxo -exp
// servers`. The key metric is the overhead gap between the 1-server and
// top-rung points — the server axis exists to expose tracer cost once the
// file system stops being the bottleneck.
func BenchmarkServerSweep(b *testing.B) {
	o := harness.ServerSmokeOptions()
	var gap float64
	for i := 0; i < b.N; i++ {
		res, err := harness.ServerAxis.Sweep(
			workloadFramework(), workload.PatternWorkload(workload.N1Strided), o)
		if err != nil {
			b.Fatal(err)
		}
		first, last := res.Points[0], res.Points[len(res.Points)-1]
		gap = (last.BandwidthOvhFrac - first.BandwidthOvhFrac) * 100
	}
	b.ReportMetric(gap, "ovh_gap_pct")
}

// --- Ablations ---

// BenchmarkAblationZeroCostHooks shows the overhead curves collapse when
// per-event interposition charges are removed: the design decision behind
// the paper's inverse-blocksize overhead law.
func BenchmarkAblationZeroCostHooks(b *testing.B) {
	run := func(model interpose.CostModel) sim.Duration {
		cfg := cluster.Default()
		cfg.ComputeNodes = 4
		c := cluster.New(cfg)
		fw := lanltrace.New(lanltrace.Config{
			Mode:         lanltrace.ModeLtrace,
			SyscallModel: model,
			LibModel:     model,
		})
		params := workload.Params{
			Pattern: workload.N1Strided, BlockSize: 64 << 10, NObj: 8,
			Path: "/pfs/abl.out",
		}
		rep := fw.Run(c.World, params.CommandLine(), func(p *sim.Proc, r *mpi.Rank) {
			workload.Program(p, r, params, nil)
		})
		return rep.Elapsed
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		full := run(interpose.LtraceBreakpoint())
		zero := run(interpose.Zero())
		ratio = float64(full) / float64(zero)
		if ratio <= 1 {
			b.Fatal("zero-cost hooks did not collapse the overhead")
		}
	}
	b.ReportMetric(ratio, "traced/zero_ratio")
}

// BenchmarkAblationRAIDSmallWrite quantifies the read-modify-write penalty
// behind the low-blocksize bandwidth droop.
func BenchmarkAblationRAIDSmallWrite(b *testing.B) {
	run := func(disable bool) sim.Duration {
		env := sim.NewEnv(1)
		cfg := disk.DefaultArray()
		cfg.DisableSmallWritePenalty = disable
		a := disk.NewArray(env, cfg, "", nil)
		var elapsed sim.Duration
		var write func(i int64)
		write = func(i int64) {
			if i == 64 {
				elapsed = env.Now()
				return
			}
			a.WriteThenSpan(i*4096, 4096, 0, func(err error) {
				if err != nil {
					b.Error(err)
				}
				write(i + 1)
			})
		}
		env.At(0, func() { write(0) })
		env.Run()
		return elapsed
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		with := run(false)
		without := run(true)
		ratio = float64(with) / float64(without)
	}
	b.ReportMetric(ratio, "rmw_penalty_ratio")
}

// --- Micro-benchmarks of the hot library paths ---

func BenchmarkSimKernelEvents(b *testing.B) {
	env := sim.NewEnv(1)
	n := 0
	var schedule func()
	schedule = func() {
		n++
		if n < b.N {
			env.After(1, schedule)
		}
	}
	b.ResetTimer()
	env.After(1, schedule)
	env.Run()
}

func BenchmarkSimProcessSwitch(b *testing.B) {
	env := sim.NewEnv(1)
	env.Go("switcher", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	env.Run()
}

func BenchmarkBinaryTraceEncode(b *testing.B) {
	rec := trace.Record{
		Name: "SYS_pwrite", Node: "host13.lanl.gov", Rank: 7, PID: 10378,
		Args: []string{"3", "65536", "32768"}, Ret: "32768",
		Path: "/pfs/mpi_io_test.out", Offset: 65536, Bytes: 32768,
	}
	var buf bytes.Buffer
	w := trace.NewBinaryWriter(&buf, trace.BinaryOptions{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Write(&rec); err != nil {
			b.Fatal(err)
		}
	}
	w.Close()
	b.SetBytes(int64(buf.Len()) / int64(b.N))
}

func BenchmarkTextTraceParse(b *testing.B) {
	line := "# node=n rank=0 pid=1\n10:59:47.105818 SYS_open(\"/etc/hosts\", 0, 0666) = 3 <0.000034>\n"
	b.SetBytes(int64(len(line)))
	for i := 0; i < b.N; i++ {
		if _, err := trace.NewTextReader(strings.NewReader(line)).ReadAll(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterMatch(b *testing.B) {
	f := tracefs.MustCompileFilter(`op in {read, write} && path ~ "/pfs/*" && bytes >= 4096`)
	rec := trace.Record{Name: "VFS_write", Path: "/pfs/data/x", Bytes: 8192}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.Match(&rec) {
			b.Fatal("filter should match")
		}
	}
}

// --- Streaming pipeline and v1 block codec ---

// codecRecords builds a realistic multi-megabyte trace: varied paths,
// strided offsets, a mix of call types. ~70 encoded bytes per record.
func codecRecords(n int) []trace.Record {
	recs := make([]trace.Record, n)
	names := []string{"SYS_pwrite", "SYS_pread", "MPI_File_write_at", "VFS_write"}
	for i := range recs {
		name := names[i%len(names)]
		path := fmt.Sprintf("/pfs/out/rank%03d/part-%04d.dat", i%64, i%1024)
		recs[i] = trace.Record{
			Time: sim.Time(i) * sim.Microsecond, Dur: 30 * sim.Microsecond,
			Node: fmt.Sprintf("host%02d.lanl.gov", i%32), Rank: i % 64, PID: 9000 + i%64,
			Class: trace.ClassSyscall, Name: name,
			Args: []string{"3", fmt.Sprint(int64(i) * 65536), "65536"}, Ret: "65536",
			Path: path, Offset: int64(i) * 65536, Bytes: 65536, UID: 500, GID: 500,
		}
	}
	return recs
}

// BenchmarkBinaryCodecWriter measures the v1 block encoder on a multi-MB
// compressed trace.
func BenchmarkBinaryCodecWriter(b *testing.B) {
	recs := codecRecords(60000)
	opts := trace.BinaryOptions{Compress: true, RecordsPerBlock: 512}
	var buf bytes.Buffer
	if err := trace.WriteAll(trace.NewBinaryWriter(&buf, opts), recs); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	for i := 0; i < b.N; i++ {
		if err := trace.WriteAll(trace.NewBinaryWriter(io.Discard, opts), recs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBinaryCodecReader measures v1 decode of the same compressed
// stream.
func BenchmarkBinaryCodecReader(b *testing.B) {
	recs := codecRecords(60000)
	opts := trace.BinaryOptions{Compress: true, RecordsPerBlock: 512}
	var buf bytes.Buffer
	if err := trace.WriteAll(trace.NewBinaryWriter(&buf, opts), recs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	drain := func(src trace.Source) error {
		_, err := trace.Copy(trace.SinkFunc(func(r *trace.Record) error { return nil }), src)
		return err
	}
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if err := drain(trace.NewBinaryReader(bytes.NewReader(data))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBinaryConversionMemory demonstrates the memory contract of the
// cmd/traceconv streaming path: converting binary to text holds O(block)
// records live, while the seed's load-everything path holds O(trace). The
// peak_live_MB metric is live heap above baseline at the conversion's
// high-water mark (sampled under forced GC).
func BenchmarkBinaryConversionMemory(b *testing.B) {
	recs := codecRecords(100000)
	var buf bytes.Buffer
	if err := trace.WriteAll(trace.NewBinaryWriter(&buf, trace.BinaryOptions{RecordsPerBlock: 512}), recs); err != nil {
		b.Fatal(err)
	}
	recs = nil
	data := buf.Bytes()

	liveAbove := func(base uint64) float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc < base {
			return 0
		}
		return float64(ms.HeapAlloc-base) / 1e6
	}
	baseline := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	b.Run("slice", func(b *testing.B) {
		var peak float64
		for i := 0; i < b.N; i++ {
			base := baseline()
			all, err := trace.NewBinaryReader(bytes.NewReader(data)).ReadAll()
			if err != nil {
				b.Fatal(err)
			}
			// The whole trace is live here — the high-water mark.
			if mb := liveAbove(base); mb > peak {
				peak = mb
			}
			w := trace.NewTextSink(io.Discard)
			for j := range all {
				w.Write(&all[j])
			}
			w.Close()
		}
		b.ReportMetric(peak, "peak_live_MB")
	})
	b.Run("stream", func(b *testing.B) {
		var peak float64
		for i := 0; i < b.N; i++ {
			base := baseline()
			w := trace.NewTextSink(io.Discard)
			var n int64
			_, err := trace.Copy(trace.SinkFunc(func(r *trace.Record) error {
				if n%20000 == 10000 { // sample mid-stream
					if mb := liveAbove(base); mb > peak {
						peak = mb
					}
				}
				n++
				return w.Write(r)
			}), trace.NewBinaryReader(bytes.NewReader(data)))
			if err != nil {
				b.Fatal(err)
			}
			w.Close()
		}
		b.ReportMetric(peak, "peak_live_MB")
	})
}

// BenchmarkCollectiveIOAblation reports the two-phase-I/O speedup at
// sub-stripe block size (the RAID-5 RMW-avoidance win).
func BenchmarkCollectiveIOAblation(b *testing.B) {
	run := func(collective bool) float64 {
		cfg := cluster.Default()
		cfg.ComputeNodes = 4
		c := cluster.New(cfg)
		res := workload.Run(c.World, workload.Params{
			Pattern: workload.N1Strided, BlockSize: 8 << 10, NObj: 16,
			Path: "/pfs/coll", Collective: collective,
		})
		return res.BandwidthBps()
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = run(true) / run(false)
	}
	b.ReportMetric(speedup, "collective_speedup_x")
}

// --- Columnar v2 codec ---

// BenchmarkColumnarEncode measures the v2 block encoder on the same
// realistic stream as the v1 codec benchmarks, plain and deflated.
func BenchmarkColumnarEncode(b *testing.B) {
	recs := codecRecords(60000)
	for _, c := range []struct {
		name     string
		compress bool
	}{{"plain", false}, {"compressed", true}} {
		b.Run(c.name, func(b *testing.B) {
			var encoded int64
			{
				var buf bytes.Buffer
				trace.WriteAll(trace.NewColumnarWriter(&buf, trace.ColumnarOptions{Compress: c.compress}), recs)
				encoded = int64(buf.Len())
			}
			b.SetBytes(encoded)
			for i := 0; i < b.N; i++ {
				if err := trace.WriteAll(trace.NewColumnarWriter(io.Discard, trace.ColumnarOptions{Compress: c.compress}), recs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColumnarDecode measures full-stream record materialization:
// the sequential source against the indexed worker-pool scan.
func BenchmarkColumnarDecode(b *testing.B) {
	recs := codecRecords(60000)
	var buf bytes.Buffer
	if err := trace.WriteAll(trace.NewColumnarWriter(&buf, trace.ColumnarOptions{Compress: true}), recs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	drain := func(src trace.Source) error {
		_, err := trace.Copy(trace.SinkFunc(func(r *trace.Record) error { return nil }), src)
		return err
	}
	b.Run("sequential", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if err := drain(trace.NewColumnarSource(bytes.NewReader(data))); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		cr, err := trace.NewColumnarReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if err := drain(cr.Scan(trace.MatchAll(), 0)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkColumnarQuery measures the serving path: a 10% time-window
// aggregate via column views (index-pruned) against the same answer from a
// full record scan. Records are time-ordered, so the footer index prunes
// the window query to ~10% of the blocks.
func BenchmarkColumnarQuery(b *testing.B) {
	recs := codecRecords(60000)
	var buf bytes.Buffer
	if err := trace.WriteAll(trace.NewColumnarWriter(&buf, trace.ColumnarOptions{}), recs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	cr, err := trace.NewColumnarReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		b.Fatal(err)
	}
	window := trace.MatchAll().WithWindow(
		recs[len(recs)*45/100].Time, recs[len(recs)*55/100].Time)
	sumBytes := func(q trace.Query) (int64, trace.ScanStats, error) {
		var total int64
		stats, err := cr.ScanViews(q, 0, func(v *trace.BlockView, rows []int) error {
			bs, err := v.Bytes()
			if err != nil {
				return err
			}
			for _, i := range rows {
				total += bs[i]
			}
			return nil
		})
		return total, stats, err
	}
	want, stats, err := sumBytes(window)
	if err != nil {
		b.Fatal(err)
	}
	if stats.BlocksDecoded*5 > stats.BlocksTotal {
		b.Fatalf("window query decoded %d of %d blocks; index is not pruning", stats.BlocksDecoded, stats.BlocksTotal)
	}
	b.Run("indexed-window", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			got, _, err := sumBytes(window)
			if err != nil {
				b.Fatal(err)
			}
			if got != want {
				b.Fatalf("sum %d != %d", got, want)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			var got int64
			_, err := trace.Copy(trace.SinkFunc(func(r *trace.Record) error {
				if window.Matches(r) {
					got += r.Bytes
				}
				return nil
			}), trace.NewColumnarSource(bytes.NewReader(data)))
			if err != nil {
				b.Fatal(err)
			}
			if got != want {
				b.Fatalf("sum %d != %d", got, want)
			}
		}
	})
}
