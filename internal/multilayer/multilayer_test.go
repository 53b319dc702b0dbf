package multilayer

import (
	"strings"
	"testing"

	"iotaxo/internal/cluster"
	"iotaxo/internal/mpi"
	"iotaxo/internal/sim"
	"iotaxo/internal/workload"
)

func testCluster() *cluster.Cluster {
	cfg := cluster.Small()
	cfg.MaxSkew = 0
	cfg.MaxDrift = 0
	return cluster.New(cfg)
}

// traceRun runs params on a fresh cluster built from cfg with every layer
// traced.
func traceRun(cfg cluster.Config, params workload.Params) *Session {
	c := cluster.New(cfg)
	s := Attach(c)
	c.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		workload.Program(p, r, params, nil)
	})
	return s
}

func runTraced(t *testing.T) (*Session, *cluster.Cluster) {
	t.Helper()
	cfg := cluster.Small()
	cfg.MaxSkew = 0
	cfg.MaxDrift = 0
	s := traceRun(cfg, workload.Params{
		Pattern:   workload.N1Strided,
		BlockSize: 128 << 10,
		NObj:      4,
		Path:      "/pfs/ml.out",
	})
	return s, s.cluster
}

func TestEveryWriteCorrelatesAcrossLayers(t *testing.T) {
	s, _ := runTraced(t)
	b := s.Analyze()
	writes := 0
	for _, cb := range b.Calls {
		if cb.Name != "MPI_File_write_at" {
			continue
		}
		writes++
		if cb.NestedSyscalls == 0 {
			t.Fatalf("write with no nested syscall: %+v", cb)
		}
		if cb.NestedFSOps == 0 {
			t.Fatalf("write with no nested FS op: %+v", cb)
		}
	}
	// 4 ranks x 4 objects.
	if writes != 16 {
		t.Fatalf("writes correlated = %d, want 16", writes)
	}
}

func TestLayerDecompositionSumsToTotal(t *testing.T) {
	s, _ := runTraced(t)
	b := s.Analyze()
	for _, cb := range b.Calls {
		sum := cb.Library + cb.Kernel + cb.Storage
		// Clamping can only shrink components, so sum <= total always; for
		// I/O calls the decomposition should be near-exact.
		if sum > cb.Total {
			t.Fatalf("decomposition exceeds total: %+v", cb)
		}
		if cb.Name == "MPI_File_write_at" && float64(sum) < 0.9*float64(cb.Total) {
			t.Fatalf("decomposition lost >10%% of %s: %+v", cb.Name, cb)
		}
	}
}

func TestStorageDominatesForLargeWrites(t *testing.T) {
	// For 128 KB writes on the simulated PFS, time below the VFS (network,
	// servers, disks) must dominate the thin library/kernel layers.
	s, _ := runTraced(t)
	tot := s.Analyze().Totals()
	if tot.Storage < tot.Library || tot.Storage < tot.Kernel {
		t.Fatalf("storage layer not dominant: %+v", tot)
	}
}

func TestEndStateUnchangedByInstrumentation(t *testing.T) {
	params := workload.Params{
		Pattern: workload.N1Strided, BlockSize: 128 << 10, NObj: 4, Path: "/pfs/ml.out",
	}
	plain := testCluster()
	workload.Run(plain.World, params)
	s1, d1, w1, _ := plain.PFS.Snapshot(params.Path)

	instrumented := testCluster()
	Attach(instrumented)
	instrumented.World.RunToCompletion(func(p *sim.Proc, r *mpi.Rank) {
		workload.Program(p, r, params, nil)
	})
	s2, d2, w2, _ := instrumented.PFS.Snapshot(params.Path)
	if s1 != s2 || d1 != d2 || w1 != w2 {
		t.Fatalf("instrumentation altered data: (%d,%x,%d) vs (%d,%x,%d)", s1, d1, w1, s2, d2, w2)
	}
}

func TestFormatOutput(t *testing.T) {
	s, _ := runTraced(t)
	out := s.Analyze().Format()
	for _, want := range []string{"library", "kernel", "storage", "MPI I/O calls"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
}

func TestEmptyBreakdownFormat(t *testing.T) {
	var b Breakdown
	if !strings.Contains(b.Format(), "no calls") {
		t.Fatal("empty format")
	}
}

// TestSharedNodeAttribution places two ranks on every node, so one FS probe
// serves both. Each rank's FS ops must still join its own writes, and the
// orphan count per rank must match the one-rank-per-node run.
func TestSharedNodeAttribution(t *testing.T) {
	params := analyzeTrials[0]
	orphansPerRank := func(rpn int) (Breakdown, float64) {
		cfg := cluster.Small()
		cfg.MaxSkew = 0
		cfg.MaxDrift = 0
		cfg.RanksPerNode = rpn
		s := traceRun(cfg, params)
		b := s.Analyze()
		return b, float64(b.Orphan) / float64(s.cluster.Ranks())
	}
	_, want := orphansPerRank(1)
	b, got := orphansPerRank(2)
	if got != want {
		t.Fatalf("orphans per rank at 2 ranks/node = %v, want %v (as at 1 rank/node)", got, want)
	}
	writes := 0
	for _, cb := range b.Calls {
		if cb.Name != "MPI_File_write_at" {
			continue
		}
		writes++
		if cb.NestedFSOps == 0 {
			t.Fatalf("rank %d write joined no FS op: %+v", cb.Rank, cb)
		}
	}
	if writes == 0 {
		t.Fatal("no writes traced")
	}
}

func TestClassificationValidates(t *testing.T) {
	c := Classification()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !bool(c.AnalysisTools) {
		t.Fatal("multi-layer analysis is an analysis tool by definition")
	}
	if len(c.EventTypes) != 3 {
		t.Fatalf("event types = %v", c.EventTypes)
	}
}
