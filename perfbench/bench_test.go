package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// runTiny runs one workload at the smoke-test size for a single unit and
// returns its parsed result line.
func runTiny(t *testing.T, workload string, traced bool) result {
	t.Helper()
	var out bytes.Buffer
	cfg := config{workload: workload, seed: 1, seconds: 0, trace: traced, size: tinySize}
	if _, err := run(cfg, &out); err != nil {
		t.Fatalf("%s (trace %v): %v", workload, traced, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s (trace %v): correct=%v failed=%d attempted=%d", workload, traced, res.Correct, res.Failed, res.Attempted)
	}
	return res
}

func names(ms []metricDef) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

func emitted(res result) []string {
	var out []string
	for name := range res.Metrics {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny size:
// each prints exactly the catalogue's metrics, and the traced run measures
// every per-layer metric listed for its workload.
func TestWorkloadsTiny(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res := runTiny(t, name, false)
			if got, want := emitted(res), names(endToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("untraced metrics %v, want %v", got, want)
			}
			for n, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end %s = %v, want > 0", n, m.Value)
				}
			}

			res = runTiny(t, name, true)
			if got, want := emitted(res), names(perLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("traced metrics %v, want %v", got, want)
			}
			for _, m := range perLayer {
				got := res.Metrics[m.Name]
				if got.Unit != m.Unit {
					t.Errorf("%s unit %q, want %q", m.Name, got.Unit, m.Unit)
				}
				measured := false
				for _, w := range m.Where {
					measured = measured || w == name
				}
				switch {
				case m.Name == "error_rate":
					if got.Value != 0 {
						t.Errorf("error_rate = %v", got.Value)
					}
				case measured && got.Value <= 0:
					t.Errorf("%s = %v on %s, want > 0", m.Name, got.Value, name)
				case !measured && got.Value != 0:
					t.Errorf("%s = %v on %s, which it does not measure", m.Name, got.Value, name)
				}
			}
		})
	}
}

// TestCatalogue checks the metric names and counts against the limits of
// the benchmark contract and BENCHMARK.json against the catalogue.
func TestCatalogue(t *testing.T) {
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("bad or duplicate metric name %q", m.Name)
		}
		seen[m.Name] = true
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	strip := func(ms []metricDef) []metricDef {
		out := make([]metricDef, len(ms))
		for i, m := range ms {
			out[i] = metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
		}
		return out
	}
	if !reflect.DeepEqual(doc.EndToEnd, strip(endToEnd)) {
		t.Errorf("BENCHMARK.json end_to_end %+v, catalogue %+v", doc.EndToEnd, strip(endToEnd))
	}
	if !reflect.DeepEqual(doc.PerLayer, strip(perLayer)) {
		t.Errorf("BENCHMARK.json per_layer differs from the catalogue")
	}
	var wl []string
	for _, w := range doc.Workloads {
		wl = append(wl, w.Name)
	}
	sort.Strings(wl)
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(want)
	if !reflect.DeepEqual(wl, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", wl, want)
	}
}

// TestSelfTime checks that a span's self time subtracts the union of its
// children's intervals, so overlapping children are not counted twice.
func TestSelfTime(t *testing.T) {
	tr := &tracer{on: true, spans: []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 50, Parent: 0},
		{Name: "c", Start: 70, End: 80, Parent: 0},
	}}
	tr.finish()
	if got := tr.spans[0].Self; got != 50 {
		t.Errorf("root self time %d, want 50", got)
	}
	if got := tr.spans[1].Self; got != 30 {
		t.Errorf("leaf self time %d, want 30", got)
	}
}
