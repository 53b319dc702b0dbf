package harness

import (
	"strings"
	"testing"

	"iotaxo/internal/framework"
	"iotaxo/internal/workload"
)

func TestServerLadder(t *testing.T) {
	o := Options{MaxRung: 16}
	want := []int{1, 2, 4, 8, 16}
	got := ServerAxis.ladder(o)
	if len(got) != len(want) {
		t.Fatalf("ladder = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ladder = %v, want %v", got, want)
		}
	}
	// A top rung off the doubling grid — the paper testbed's 12 servers —
	// is still included.
	o.MaxRung = 12
	got = ServerAxis.ladder(o)
	if got[len(got)-1] != 12 || got[len(got)-2] != 8 {
		t.Fatalf("off-grid ladder = %v", got)
	}
	// Zero defaults.
	if top := ServerAxis.ladder(Options{}); top[len(top)-1] != DefaultMaxServers {
		t.Fatalf("default ladder top = %d", top[len(top)-1])
	}
}

func TestResolveServerOptions(t *testing.T) {
	o, err := ResolveServerOptions(ServerOptions(), 8, 16, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	if o.MaxRung != 8 || o.Ranks != 16 || o.RanksPerNode != 2 {
		t.Fatalf("resolved %+v", o)
	}
	if len(o.Workloads) != 1 || o.Workloads[0].Name() != workload.N1Strided.String() {
		t.Fatalf("default workload axis = %v", o.Workloads)
	}
	if o, err = ResolveServerOptions(ServerOptions(), 0, 0, 0, "all"); err != nil || o.Workloads != nil {
		t.Fatalf("all: %v %v", o.Workloads, err)
	}
	if _, err = ResolveServerOptions(ServerOptions(), 0, 0, 0, "nosuch"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err = ResolveServerOptions(ServerOptions(), 0, 0, -1, ""); err == nil {
		t.Fatal("negative ranks-per-node accepted")
	}
}

func TestServerSweepShape(t *testing.T) {
	o := ServerSmokeOptions()
	res, err := ServerAxis.Sweep(framework.MustLookup("LANL-Trace"), workload.PatternWorkload(workload.N1Strided), o)
	if err != nil {
		t.Fatal(err)
	}
	ladder := ServerAxis.ladder(o)
	if len(res.Points) != len(ladder) {
		t.Fatalf("points = %d, want %d", len(res.Points), len(ladder))
	}
	for i, p := range res.Points {
		if p.X != ladder[i] {
			t.Fatalf("point %d servers = %d, want %d", i, p.X, ladder[i])
		}
		if p.UntracedMBps <= 0 || p.TracedMBps <= 0 {
			t.Fatalf("no bandwidth at %d servers", p.X)
		}
	}
	// More object servers must raise untraced bandwidth across the ladder
	// (the sweep's reason to exist: the file system stops being the
	// bottleneck, exposing tracer overhead).
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.UntracedMBps <= first.UntracedMBps {
		t.Fatalf("untraced bandwidth did not scale with servers: %v -> %v",
			first.UntracedMBps, last.UntracedMBps)
	}
	out := res.Format()
	for _, want := range []string{"servers", "untraced MB/s", "elapsed ovh %", "LANL-Trace", "8 ranks"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "servers,") || strings.Count(csv, "\n") != len(ladder)+1 {
		t.Fatalf("csv:\n%s", csv)
	}
}

func TestServerMatrixCoversRegistry(t *testing.T) {
	o := ServerSmokeOptions()
	o.MaxRung = 2
	o.Workloads = []workload.Workload{workload.PatternWorkload(workload.N1Strided)}
	m, err := ServerAxis.MatrixSweep(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Series) != len(framework.Names()) {
		t.Fatalf("series = %d, want %d", len(m.Series), len(framework.Names()))
	}
	for i, name := range framework.Names() {
		if m.Series[i].Framework != name {
			t.Fatalf("series %d framework = %q, want %q", i, m.Series[i].Framework, name)
		}
	}
	out := m.Format()
	if !strings.Contains(out, "server-count matrix") || strings.Count(out, "# servers:") != len(m.Series) {
		t.Fatalf("matrix format:\n%s", out)
	}
}

// TestServerSweepDeterministic runs the same server sweep twice and requires
// byte-identical rendering; rungs run concurrently on the shared scheduler,
// so each must be an independently seeded simulation with no shared state.
func TestServerSweepDeterministic(t *testing.T) {
	o := ServerSmokeOptions()
	run := func() string {
		res, err := ServerAxis.Sweep(framework.MustLookup("LANL-Trace"), workload.PatternWorkload(workload.N1Strided), o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Format() + res.CSV()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("server sweep not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestPlacementSweepDeterministic is the RanksPerNode counterpart: a 4-ranks
// -per-node scaling sweep must be byte-identical across runs, and its output
// must carry the placement label.
func TestPlacementSweepDeterministic(t *testing.T) {
	o := ScaleSmokeOptions()
	o.RanksPerNode = 4
	run := func() string {
		res, err := RankAxis.Sweep(framework.MustLookup("Tracefs"), workload.PatternWorkload(workload.N1Strided), o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Format() + res.CSV()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("placement sweep not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
	if !strings.Contains(a, "4 ranks/node") {
		t.Fatalf("placement label missing:\n%s", a)
	}
}

// TestPlacementChangesContention sanity-checks the placement axis: packing 4
// ranks onto each node makes them share one NIC and kernel, which must not
// produce the same testbed as one rank per node.
func TestPlacementChangesContention(t *testing.T) {
	o := ScaleSmokeOptions()
	o.Ranks = 16
	base := o.runUntracedAt(workload.PatternWorkload(workload.N1Strided), o.scaleRung(16))
	o.RanksPerNode = 4
	packed := o.runUntracedAt(workload.PatternWorkload(workload.N1Strided), o.scaleRung(16))
	if base.Ranks != 16 || packed.Ranks != 16 {
		t.Fatalf("ranks: base %d, packed %d", base.Ranks, packed.Ranks)
	}
	if base.Elapsed == packed.Elapsed {
		t.Fatal("4 ranks/node produced an identical schedule to 1 rank/node")
	}
}
