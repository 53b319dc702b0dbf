// Classifynew: using the taxonomy as its authors intended — "to provide the
// developers of I/O Tracing Frameworks a language to categorize the
// functionality and performance" of a NEW tool. We implement a hypothetical
// eBPF-style in-kernel tracer against the framework registry interface,
// register it, and let the generic harness classify AND measure it: the
// one-file integration the registry exists for.
package main

import (
	"fmt"

	"iotaxo/internal/cluster"
	"iotaxo/internal/core"
	"iotaxo/internal/framework"
	"iotaxo/internal/harness"
	"iotaxo/internal/interpose"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/workload"
)

// kprobeTrace is the hypothetical framework: cheap in-kernel probes on the
// library-call boundary, binary output.
type kprobeTrace struct{}

func (kprobeTrace) Name() string { return "KProbeTrace (hypothetical)" }

func (kprobeTrace) Classification() *core.Classification {
	return &core.Classification{
		Name:             "KProbeTrace (hypothetical)",
		ParallelFSCompat: true,
		EaseOfInstall:    3, // kernel >= feature gate, but no module build
		Anonymization:    2, // hash-based path scrubbing only
		EventTypes: []core.EventType{
			core.EventSyscalls, core.EventFSOps, core.EventNetwork,
		},
		TraceGranularity: 4, // per-probe predicates
		ReplayableTraces: true,
		ReplayFidelity: core.FidelityReport{
			Supported: true, ErrorFrac: 0.15,
		},
		RevealsDeps:       false,
		Intrusiveness:     1, // passive: no recompilation, no LD_PRELOAD
		AnalysisTools:     true,
		DataFormat:        core.FormatBinary,
		AccountsSkewDrift: "No",
		ElapsedOverhead: core.OverheadReport{
			Description: "projected from per-probe costs", // replaced by measurement below
		},
		Notes: []string{
			"hypothetical framework used to demonstrate the taxonomy API",
		},
	}
}

// Attach hooks every rank's library boundary with a cheap in-kernel probe
// cost model, collecting records per rank.
func (kprobeTrace) Attach(c *cluster.Cluster) framework.Session {
	s := &kprobeSession{c: c}
	model := interpose.CostModel{
		EnterCost:     150 * sim.Nanosecond,
		ExitCost:      250 * sim.Nanosecond,
		PerOutputByte: 5 * sim.Nanosecond,
	}
	for i := 0; i < c.World.Size(); i++ {
		col := &interpose.Collector{}
		rec := interpose.NewRecorder(model, col)
		c.World.Rank(i).Tracepoint().Attach(rec)
		s.cols = append(s.cols, col)
		s.recs = append(s.recs, rec)
	}
	return s
}

type kprobeSession struct {
	c    *cluster.Cluster
	cols []*interpose.Collector
	recs []*interpose.Recorder
}

func (s *kprobeSession) Run(spec workload.Spec) (framework.Report, error) {
	res := framework.RunWorkload(s.c, spec)
	rep := framework.Report{Result: res, TracingElapsed: res.Elapsed, Runs: 1}
	for _, r := range s.recs {
		rep.TraceEvents += r.Events
		rep.TraceBytes += r.OutputBytes
	}
	return rep, nil
}

func (s *kprobeSession) Sources() []trace.Source {
	out := make([]trace.Source, len(s.cols))
	for i, col := range s.cols {
		out[i] = col.Source()
	}
	return out
}

func main() {
	fw := kprobeTrace{}
	if err := fw.Classification().Validate(); err != nil {
		panic(err)
	}

	// Registering makes the framework visible to everything registry-driven:
	// harness.MatrixSweep, `iotaxo -list`, `tracebench -exp matrix`.
	framework.Register(fw)
	fmt.Println("=== Registry after Register ===")
	for _, name := range framework.Names() {
		fmt.Println(" -", name)
	}

	fmt.Println("\n=== Table 1 card for the new framework ===")
	fmt.Print(core.RenderCard(fw.Classification()))

	// The generic engine measures the new framework with zero extra code:
	// elapsed overhead is folded into the classification by MatrixSweepOf.
	o := harness.QuickOptions()
	o.Ranks = 4
	o.PerRankBytes = 1 << 20
	o.BlockSizes = []int64{64 << 10, 1 << 20}
	m, err := harness.MatrixSweepOf(o, fw)
	if err != nil {
		panic(err)
	}
	measured := m.Classifications()[0]
	fmt.Println("\n=== Measured on the simulated cluster ===")
	fmt.Print(m.Format())
	fmt.Printf("\nElapsed time overhead: %s\n", measured.ElapsedOverhead)

	fmt.Println("\n=== Side-by-side with the paper's subjects (Table 2 extended) ===")
	all := append(core.AllPaperClassifications(), measured)
	fmt.Print(core.RenderComparison(all...))

	fmt.Println("\n=== Markdown for the project README ===")
	fmt.Print(core.RenderMarkdown(measured))
}
