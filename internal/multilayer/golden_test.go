package multilayer

import (
	"fmt"
	"strings"
	"testing"

	"iotaxo/internal/analysis"
	"iotaxo/internal/cluster"
	"iotaxo/internal/golden"
	"iotaxo/internal/trace"
	"iotaxo/internal/workload"
)

// TestAttributionGoldens pins the bytes of both cross-layer analyses on two
// fixed runs: the Analyze table, one line per CallBreakdown, and the slice
// of every layer's records with three critical paths. "slicing-smoke" is
// the CI smoke shape (mpi-io-test -np 4 -strided 1 -size 131072 -nobj 4);
// "nn-readback-skewed" is N-N with read-back and barriers on Small()'s
// skewed, drifting clocks. Regenerate with
// `go test ./internal/multilayer -run TestAttributionGoldens -update`, and
// only for a deliberate output change.
func TestAttributionGoldens(t *testing.T) {
	smoke := cluster.Default()
	smoke.ComputeNodes = 4
	for _, tc := range []struct {
		name   string
		cfg    cluster.Config
		params workload.Params
	}{
		{"slicing-smoke", smoke, workload.Params{
			Pattern: workload.N1Strided, BlockSize: 128 << 10, NObj: 4, Path: "/pfs/mpi_io_test.out",
		}},
		{"nn-readback-skewed", cluster.Small(), workload.Params{
			Pattern: workload.NToN, BlockSize: 16 << 10, NObj: 5, Path: "/pfs/nn.out", ReadBack: true, BarrierEvery: 2,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := traceRun(tc.cfg, tc.params)
			b := s.Analyze()
			var out strings.Builder
			out.WriteString(b.Format())
			for _, cb := range b.Calls {
				fmt.Fprintf(&out, "%+v\n", cb)
			}
			recs, err := trace.Collect(s.AllSource())
			if err != nil {
				t.Fatal(err)
			}
			out.WriteString(analysis.SliceRecords(recs, 3).Format())
			golden.Check(t, tc.name+".golden", out.String())
		})
	}
}
