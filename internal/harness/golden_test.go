package harness

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

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
			checkGolden(t, tc.name+".txt.golden", m.Format())
			checkGolden(t, tc.name+".csv.golden", csv.String())
		})
	}
}

// checkGolden compares got against testdata/name (rewriting it under
// -update), reporting the first differing line on a mismatch.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := string(b)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: first difference at line %d:\n got %q\nwant %q", path, i+1, g, w)
		}
	}
}
