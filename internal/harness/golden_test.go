package harness

import (
	"strings"
	"testing"

	"iotaxo/internal/golden"
)

// TestAxisSweepGoldens pins the rendered bytes of the rank and server
// sweeps: Format and every series' CSV of the smoke ladders, in weak and
// strong mode and under multi-rank placement. Regenerate with
// `go test ./internal/harness -run TestAxisSweepGoldens -update`, and only
// for a deliberate output change.
func TestAxisSweepGoldens(t *testing.T) {
	strong := ScaleSmokeOptions()
	strong.ScaleMode = StrongScaling
	placed := func(o Options, rpn int) Options {
		o.RanksPerNode = rpn
		return o
	}
	for _, tc := range []struct {
		name string
		axis Axis
		o    Options
	}{
		{"scale-weak", RankAxis, ScaleSmokeOptions()},
		{"scale-strong", RankAxis, strong},
		{"scale-rpn2", RankAxis, placed(ScaleSmokeOptions(), 2)},
		{"servers-rpn1", ServerAxis, placed(ServerSmokeOptions(), 1)},
		{"servers-rpn2", ServerAxis, placed(ServerSmokeOptions(), 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := tc.axis.MatrixSweep(tc.o)
			if err != nil {
				t.Fatal(err)
			}
			var csv strings.Builder
			for _, s := range m.Series {
				csv.WriteString("# " + s.Framework + " on " + s.Workload + s.Placement() + "\n" + s.CSV())
			}
			golden.Check(t, tc.name+".txt.golden", m.Format())
			golden.Check(t, tc.name+".csv.golden", csv.String())
		})
	}
}
