package partrace

import (
	"bytes"
	"testing"

	"iotaxo/internal/cluster"
	"iotaxo/internal/mpi"
	"iotaxo/internal/replay"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/workload"
)

func factory() *cluster.Cluster {
	cfg := cluster.Small()
	cfg.MaxSkew = 0
	cfg.MaxDrift = 0
	return cluster.New(cfg)
}

func skewedFactory() *cluster.Cluster {
	cfg := cluster.Small()
	return cluster.New(cfg)
}

func params() workload.Params {
	return workload.Params{
		Pattern:      workload.N1Strided,
		BlockSize:    64 << 10,
		NObj:         4,
		Path:         "/pfs/app.out",
		BarrierEvery: 1, // phase-synchronized, as checkpointing apps are
	}
}

func program(p *sim.Proc, r *mpi.Rank) {
	workload.Program(p, r, params(), nil)
}

func TestGenerateProducesValidTrace(t *testing.T) {
	fw := New(DefaultConfig())
	res, err := fw.Generate(factory, program)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every rank: open + 4 writes + close = 6 ops.
	for rank, ops := range res.Trace.Ops {
		if len(ops) != 6 {
			t.Fatalf("rank %d has %d ops, want 6", rank, len(ops))
		}
		if ops[0].Kind != replay.OpOpen || ops[5].Kind != replay.OpClose {
			t.Fatalf("rank %d op kinds: %v ... %v", rank, ops[0].Kind, ops[5].Kind)
		}
		for k := 1; k <= 4; k++ {
			if ops[k].Kind != replay.OpWrite || ops[k].Bytes != 64<<10 || ops[k].Path != "/pfs/app.out" {
				t.Fatalf("rank %d op %d: %+v", rank, k, ops[k])
			}
		}
	}
}

func TestThrottlingDiscoversDependencies(t *testing.T) {
	fw := New(DefaultConfig())
	res, err := fw.Generate(factory, program)
	if err != nil {
		t.Fatal(err)
	}
	// The workload barriers before and after I/O: throttling rank 0 must
	// shift other ranks' post-barrier ops, yielding edges.
	if res.DepCount == 0 {
		t.Fatal("no dependencies discovered despite barrier coupling")
	}
	for _, d := range res.Trace.Deps {
		if d.FromRank == d.ToRank {
			t.Fatalf("self edge: %+v", d)
		}
		if d.FromRank >= 2 {
			t.Fatalf("edge from unprobed rank: %+v (sampled 2)", d)
		}
	}
}

func TestZeroSamplingNoDepsLowOverhead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SampledRanks = 0
	fw := New(cfg)
	res, err := fw.Generate(factory, program)
	if err != nil {
		t.Fatal(err)
	}
	if res.DepCount != 0 || res.Runs != 1 {
		t.Fatalf("deps=%d runs=%d", res.DepCount, res.Runs)
	}
	// Single preload-instrumented run: overhead near zero (the paper: ~0%).
	if ov := res.OverheadFrac(); ov < 0 || ov > 0.10 {
		t.Fatalf("zero-sampling overhead %.1f%%, want ~0%%", ov*100)
	}
}

func TestOverheadGrowsWithSampling(t *testing.T) {
	overhead := func(sampled int) float64 {
		cfg := DefaultConfig()
		cfg.SampledRanks = sampled
		res, err := New(cfg).Generate(factory, program)
		if err != nil {
			t.Fatal(err)
		}
		return res.OverheadFrac()
	}
	o0 := overhead(0)
	o2 := overhead(2)
	o4 := overhead(4)
	if !(o0 < o2 && o2 < o4) {
		t.Fatalf("overhead not increasing: %.2f %.2f %.2f", o0, o2, o4)
	}
	// Two probes means roughly two extra runs (~200%), plus the throttle
	// tax, which weighs heavily on this deliberately tiny workload.
	if o2 < 1.0 || o2 > 7.0 {
		t.Fatalf("2-probe overhead %.0f%%, want roughly 2 extra runs", o2*100)
	}
}

func TestReplayFidelityImprovesWithDeps(t *testing.T) {
	fidelity := func(sampled int) float64 {
		cfg := DefaultConfig()
		cfg.SampledRanks = sampled
		res, err := New(cfg).Generate(factory, program)
		if err != nil {
			t.Fatal(err)
		}
		c := factory()
		rr, err := replay.Execute(c, res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		return replay.Fidelity(res.Trace.OriginalElapsed, rr.Elapsed)
	}
	full := fidelity(4) // probe all ranks
	if full > 0.15 {
		t.Fatalf("full-sampling fidelity error %.1f%%, want small", full*100)
	}
}

func TestTraceRoundTripsThroughText(t *testing.T) {
	fw := New(DefaultConfig())
	res, err := fw.Generate(factory, program)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Trace.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := replay.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.OpCount() != res.Trace.OpCount() || len(got.Deps) != len(res.Trace.Deps) {
		t.Fatalf("round trip lost content: %d/%d ops, %d/%d deps",
			got.OpCount(), res.Trace.OpCount(), len(got.Deps), len(res.Trace.Deps))
	}
}

func TestReplayedEndStateMatchesOriginal(t *testing.T) {
	fw := New(DefaultConfig())
	res, err := fw.Generate(factory, program)
	if err != nil {
		t.Fatal(err)
	}
	// Original end state.
	cOrig := factory()
	workload.Run(cOrig.World, params())
	s1, d1, w1, _ := cOrig.PFS.Snapshot(params().Path)
	// Replayed end state.
	cRep := factory()
	if _, err := replay.Execute(cRep, res.Trace); err != nil {
		t.Fatal(err)
	}
	s2, d2, w2, _ := cRep.PFS.Snapshot(params().Path)
	if s1 != s2 || d1 != d2 || w1 != w2 {
		t.Fatalf("replayed I/O signature differs: (%d,%x,%d) vs (%d,%x,%d)", s1, d1, w1, s2, d2, w2)
	}
}

func TestSkewedClocksStillWork(t *testing.T) {
	// Same-node comparisons cancel skew; generation must succeed and find
	// deps even with skewed/drifting clocks.
	fw := New(DefaultConfig())
	res, err := fw.Generate(skewedFactory, program)
	if err != nil {
		t.Fatal(err)
	}
	if res.DepCount == 0 {
		t.Fatal("skew broke dependency discovery")
	}
}

func TestClassificationMatchesPaper(t *testing.T) {
	fw := New(DefaultConfig())
	c := fw.Classification()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !bool(c.ReplayableTraces) || !bool(c.RevealsDeps) {
		t.Fatalf("classification: %+v", c)
	}
	if fw.Name() != "//TRACE" {
		t.Fatalf("name = %q", fw.Name())
	}
}

func TestRawTraceStreamsBaselineRun(t *testing.T) {
	// Stream the baseline run's records straight into the binary codec as
	// they are observed — the emitter side of the pipeline.
	var buf bytes.Buffer
	bw := trace.NewBinaryWriter(&buf, trace.BinaryOptions{Compress: true, RecordsPerBlock: 32})
	cfg := DefaultConfig()
	cfg.SampledRanks = 0
	cfg.RawTrace = bw
	res, err := New(cfg).Generate(factory, program)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.NewBinaryReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records streamed")
	}
	// The stream carries at least every replayable op of the result.
	if len(recs) < res.Trace.OpCount() {
		t.Fatalf("streamed %d records for %d replayable ops", len(recs), res.Trace.OpCount())
	}
	// Only the baseline run emits: re-generating with sampling must not
	// multiply the stream.
	var buf2 bytes.Buffer
	bw2 := trace.NewBinaryWriter(&buf2, trace.BinaryOptions{Compress: true, RecordsPerBlock: 32})
	cfg2 := DefaultConfig()
	cfg2.SampledRanks = -1 // probe every rank
	cfg2.RawTrace = bw2
	if _, err := New(cfg2).Generate(factory, program); err != nil {
		t.Fatal(err)
	}
	if err := bw2.Close(); err != nil {
		t.Fatal(err)
	}
	recs2, err := trace.NewBinaryReader(&buf2).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != len(recs) {
		t.Fatalf("throttled runs leaked into the raw stream: %d vs %d records", len(recs2), len(recs))
	}
}
