package multilayer

import (
	"reflect"
	"strings"
	"testing"

	"iotaxo/internal/cluster"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/workload"
)

// within reports interval containment with a small tolerance for the probe
// costs charged between layers.
func within(inner, outer *trace.Record, slack sim.Duration) bool {
	return inner.Time >= outer.Time-slack &&
		inner.Time+inner.Dur <= outer.Time+outer.Dur+slack
}

// naiveAnalyze is the original all-pairs O(lib x sys x fs) correlation by
// interval containment within each rank, kept as the oracle for the span
// projection in Analyze. It knows nothing of spans, so it holds only at one
// rank per node, where a node's FS records all belong to its one rank.
func naiveAnalyze(s *Session) Breakdown {
	const slack = 50 * sim.Microsecond
	var out Breakdown
	fsByRank := make(map[int][]trace.Record)
	for _, fl := range s.fs {
		fsByRank[fl.rank] = append(fsByRank[fl.rank], fl.col.Records...)
	}
	for rank := range s.lib {
		libRecs := s.lib[rank].Records
		sysRecs := s.sys[rank].Records
		fsRecs := fsByRank[rank]
		usedSys := make([]bool, len(sysRecs))
		usedFS := make([]bool, len(fsRecs))
		for i := range libRecs {
			mpiRec := &libRecs[i]
			if !strings.HasPrefix(mpiRec.Name, "MPI_File_") {
				continue
			}
			cb := CallBreakdown{
				Rank: mpiRec.Rank, Name: mpiRec.Name, Path: mpiRec.Path,
				Bytes: mpiRec.Bytes, Total: mpiRec.Dur,
			}
			var sysTime, fsTime sim.Duration
			for j := range sysRecs {
				if usedSys[j] || !within(&sysRecs[j], mpiRec, slack) {
					continue
				}
				usedSys[j] = true
				cb.NestedSyscalls++
				sysTime += sysRecs[j].Dur
				for k := range fsRecs {
					if usedFS[k] || !within(&fsRecs[k], &sysRecs[j], slack) {
						continue
					}
					usedFS[k] = true
					cb.NestedFSOps++
					fsTime += fsRecs[k].Dur
				}
			}
			cb.Library = cb.Total - sysTime
			cb.Kernel = sysTime - fsTime
			cb.Storage = fsTime
			if cb.Library < 0 {
				cb.Library = 0
			}
			if cb.Kernel < 0 {
				cb.Kernel = 0
			}
			out.Calls = append(out.Calls, cb)
		}
		for j := range sysRecs {
			if !usedSys[j] {
				out.Orphan++
			}
		}
		for k := range fsRecs {
			if !usedFS[k] {
				out.Orphan++
			}
		}
	}
	return out
}

// analyzeTrials spreads the oracle comparison over workload shapes.
var analyzeTrials = []workload.Params{
	{Pattern: workload.N1NonStrided, BlockSize: 64 << 10, NObj: 3, Path: "/pfs/a.out"},
	{Pattern: workload.N1Strided, BlockSize: 128 << 10, NObj: 4, Path: "/pfs/b.out"},
	{Pattern: workload.N1Strided, BlockSize: 32 << 10, NObj: 6, Path: "/pfs/c.out", BarrierEvery: 2},
	{Pattern: workload.NToN, BlockSize: 256 << 10, NObj: 2, Path: "/pfs/d.out"},
	{Pattern: workload.NToN, BlockSize: 16 << 10, NObj: 5, Path: "/pfs/e.out", ReadBack: true},
	{Pattern: workload.N1NonStrided, BlockSize: 8 << 10, NObj: 8, Path: "/pfs/f.out", ReadBack: true, BarrierEvery: 3},
}

// TestSpanJoinMatchesWindowedOracle pins the span projection in Analyze to
// the slack-windowed interval-containment oracle, naiveAnalyze, across
// workload shapes on exact clocks. Run under -race in CI, this also
// exercises the tracer hooks and span allocator for data races.
func TestSpanJoinMatchesWindowedOracle(t *testing.T) {
	exact := cluster.Small()
	exact.MaxSkew = 0
	exact.MaxDrift = 0
	checkAgainstNaive(t, exact)
}

// TestAnalyzeMatchesNaiveScan repeats the oracle comparison on Small()'s
// skewed, drifting clocks: span parentage does not depend on timestamps, and
// the containment slack absorbs the probe costs either way.
func TestAnalyzeMatchesNaiveScan(t *testing.T) {
	checkAgainstNaive(t, cluster.Small())
}

// checkAgainstNaive runs every trial on cfg and requires Analyze and
// naiveAnalyze to agree call for call.
func checkAgainstNaive(t *testing.T, cfg cluster.Config) {
	for _, params := range analyzeTrials {
		t.Run(params.Pattern.String()+"/"+params.Path, func(t *testing.T) {
			t.Parallel()
			s := traceRun(cfg, params)
			got, want := s.Analyze(), naiveAnalyze(s)
			if got.Orphan != want.Orphan {
				t.Fatalf("orphans: Analyze %d, naive %d", got.Orphan, want.Orphan)
			}
			if len(got.Calls) != len(want.Calls) {
				t.Fatalf("calls: Analyze %d, naive %d", len(got.Calls), len(want.Calls))
			}
			for i := range got.Calls {
				if !reflect.DeepEqual(got.Calls[i], want.Calls[i]) {
					t.Fatalf("call %d diverges:\nAnalyze %+v\n  naive %+v", i, got.Calls[i], want.Calls[i])
				}
			}
			if len(got.Calls) == 0 {
				t.Fatal("no correlated calls — workload did not trace")
			}
		})
	}
}
