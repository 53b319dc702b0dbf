package harness

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iotaxo/internal/framework"
	"iotaxo/internal/workload"
)

// --- scheduler ---

func TestSchedulerBoundsConcurrency(t *testing.T) {
	s := newScheduler(3)
	var ran atomic.Int64
	tasks := make([]func(), 20)
	for i := range tasks {
		tasks[i] = func() {
			time.Sleep(time.Millisecond)
			ran.Add(1)
		}
	}
	s.runAll(tasks)
	if got := ran.Load(); got != 20 {
		t.Fatalf("ran %d tasks, want 20", got)
	}
	if peak := s.peakConcurrency(); peak < 1 || peak > 3 {
		t.Fatalf("peak concurrency %d, want within [1, 3]", peak)
	}
}

// TestSchedulerSharedBoundAcrossCallers verifies the slot pool is a global
// bound: two concurrent runAll calls together never exceed the size.
func TestSchedulerSharedBoundAcrossCallers(t *testing.T) {
	s := newScheduler(2)
	mk := func() []func() {
		tasks := make([]func(), 8)
		for i := range tasks {
			tasks[i] = func() { time.Sleep(time.Millisecond) }
		}
		return tasks
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.runAll(mk())
		}()
	}
	wg.Wait()
	if peak := s.peakConcurrency(); peak > 2 {
		t.Fatalf("peak concurrency %d across concurrent callers, want <= 2", peak)
	}
}

func TestSchedulerEmptyAndZeroSize(t *testing.T) {
	newScheduler(0).runAll(nil) // must not hang or panic
	s := newScheduler(-1)
	if s.size() != 1 {
		t.Fatalf("size = %d, want floor 1", s.size())
	}
}

// TestSchedulerMemBudgetSerializes pins the memory-sized pool: once the
// per-task footprint estimate exists, a budget that fits only one task at a
// time must degrade a wide pool to serial execution — never deadlock, never
// exceed the budget with a second admission.
func TestSchedulerMemBudgetSerializes(t *testing.T) {
	s := newScheduler(4)
	s.setMemBudget(100)
	s.noteTaskGrowth(80) // one task's estimated footprint: only one fits
	var ran atomic.Int64
	tasks := make([]func(), 12)
	for i := range tasks {
		tasks[i] = func() {
			time.Sleep(time.Millisecond)
			ran.Add(1)
		}
	}
	s.runAll(tasks)
	if got := ran.Load(); got != 12 {
		t.Fatalf("ran %d tasks, want 12", got)
	}
	if peak := s.peakConcurrency(); peak != 1 {
		t.Fatalf("peak concurrency %d under one-task budget, want 1", peak)
	}
	// A budget with room for the whole pool re-widens it (sized off the
	// live estimate, which the instrumented phase above has updated with
	// real measurements).
	s.resetPeak()
	s.setMemBudget(s.taskHW.Load()*int64(s.size()) + 1)
	s.runAll(tasks)
	if peak := s.peakConcurrency(); peak < 2 {
		t.Fatalf("peak concurrency %d under ample budget, want > 1", peak)
	}
}

// TestSchedulerColdPoolUnthrottled: with no completed task to estimate
// from, a budget must not serialize the first wave (the estimate is zero).
func TestSchedulerColdPoolUnthrottled(t *testing.T) {
	s := newScheduler(4)
	s.setMemBudget(1)
	var wg sync.WaitGroup
	wg.Add(1)
	gate := make(chan struct{})
	tasks := []func(){
		func() { wg.Done(); <-gate },
		func() { wg.Wait(); close(gate) }, // deadlocks unless both admitted
		func() {}, func() {},
	}
	done := make(chan struct{})
	go func() { s.runAll(tasks); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("cold pool serialized under budget: concurrent tasks deadlocked")
	}
}

func TestSchedulerHeapWatermark(t *testing.T) {
	s := newScheduler(2)
	s.resetPeak()
	var sink [][]byte
	s.runAll([]func(){func() {
		sink = append(sink, make([]byte, 8<<20))
	}})
	if got := s.peakHeapBytes(); got < 8<<20 {
		t.Fatalf("heap watermark %d after an 8 MiB allocation, want >= 8 MiB", got)
	}
	_ = sink
}

func TestParseMemBudget(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"", 0, true},
		{"0", 0, true},
		{"512MB", 512 << 20, true},
		{"512MiB", 512 << 20, true},
		{"2GB", 2 << 30, true},
		{"2gb", 2 << 30, true},
		{" 1.5 GB ", 3 << 29, true},
		{"64KB", 64 << 10, true},
		{"1TB", 1 << 40, true},
		{"123", 123, true},
		{"123B", 123, true},
		{"-1GB", 0, false},
		{"lots", 0, false},
	} {
		got, err := ParseMemBudget(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("ParseMemBudget(%q) = %d, %v; want %d, ok=%v", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestSweepStatsFooterRendersMemory(t *testing.T) {
	s := SweepStats{PeakHeapBytes: 5 << 20}
	if f := s.Footer(); !strings.Contains(f, "heap peak 5.0 MiB") {
		t.Fatalf("footer missing heap peak: %q", f)
	}
	s.MemBudget = 2 << 30
	if f := s.Footer(); !strings.Contains(f, "of 2.0 GiB budget") {
		t.Fatalf("footer missing budget: %q", f)
	}
}

// TestMatrixSweepNeverExceedsPool is the scheduler-bound regression test
// the bugfix exists for: a full-registry matrix sweep used to launch one
// goroutine (and one live cluster simulation) per framework x workload x
// block x {traced, untraced}; now the instrumented peak must stay at or
// under the shared pool size.
func TestMatrixSweepNeverExceedsPool(t *testing.T) {
	sched.resetPeak()
	if _, err := MatrixSweep(MatrixSmokeOptions()); err != nil {
		t.Fatal(err)
	}
	peak := sched.peakConcurrency()
	if peak < 1 {
		t.Fatal("scheduler saw no tasks")
	}
	if peak > PoolSize() {
		t.Fatalf("peak concurrent simulations %d exceeded pool size %d", peak, PoolSize())
	}
}

func TestScaleSweepNeverExceedsPool(t *testing.T) {
	o := ScaleSmokeOptions()
	sched.resetPeak()
	if _, err := RankAxis.Sweep(framework.MustLookup("Tracefs"), workload.PatternWorkload(workload.N1Strided), o); err != nil {
		t.Fatal(err)
	}
	if peak := sched.peakConcurrency(); peak < 1 || peak > PoolSize() {
		t.Fatalf("peak concurrent simulations %d, want within [1, %d]", peak, PoolSize())
	}
}

// --- scaling sweep ---

func TestParseScaleMode(t *testing.T) {
	for _, c := range []struct {
		in   string
		want ScaleMode
		ok   bool
	}{
		{"weak", WeakScaling, true},
		{"Strong", StrongScaling, true},
		{" strong ", StrongScaling, true},
		{"", WeakScaling, true},
		{"linear", WeakScaling, false},
	} {
		got, ok := ParseScaleMode(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseScaleMode(%q) = %v, %v", c.in, got, ok)
		}
	}
	if WeakScaling.String() != "weak" || StrongScaling.String() != "strong" {
		t.Fatal("ScaleMode.String mismatch")
	}
}

func TestRankLadder(t *testing.T) {
	o := Options{MaxRung: 512}
	want := []int{4, 8, 16, 32, 64, 128, 256, 512}
	got := RankAxis.ladder(o)
	if len(got) != len(want) {
		t.Fatalf("ladder = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ladder = %v, want %v", got, want)
		}
	}
	// A top rung off the doubling grid is still included.
	o.MaxRung = 48
	got = RankAxis.ladder(o)
	if got[len(got)-1] != 48 || got[len(got)-2] != 32 {
		t.Fatalf("off-grid ladder = %v", got)
	}
	// Zero defaults.
	if top := RankAxis.ladder(Options{}); top[len(top)-1] != DefaultMaxRanks {
		t.Fatalf("default ladder top = %d", top[len(top)-1])
	}
}

func TestScaleSweepWeakShape(t *testing.T) {
	o := ScaleSmokeOptions()
	res, err := RankAxis.Sweep(framework.MustLookup("LANL-Trace"), workload.PatternWorkload(workload.N1Strided), o)
	if err != nil {
		t.Fatal(err)
	}
	ladder := RankAxis.ladder(o)
	if len(res.Points) != len(ladder) {
		t.Fatalf("points = %d, want %d", len(res.Points), len(ladder))
	}
	for i, p := range res.Points {
		if p.X != ladder[i] {
			t.Fatalf("point %d ranks = %d, want %d", i, p.X, ladder[i])
		}
		// Weak scaling: per-rank volume is constant along the ladder.
		if p.PerRankBytes != o.PerRankBytes {
			t.Fatalf("weak per-rank = %d at %d ranks, want %d", p.PerRankBytes, p.X, o.PerRankBytes)
		}
		// ltrace-style interposition must cost elapsed time at every rung.
		if p.ElapsedOvhFrac <= 0 {
			t.Fatalf("no overhead at %d ranks", p.X)
		}
		if p.TraceEvents == 0 {
			t.Fatalf("no events traced at %d ranks", p.X)
		}
	}
	out := res.Format()
	for _, want := range []string{"weak scaling", "ranks", "elapsed ovh %", "LANL-Trace"} {
		if !strings.Contains(out, want) {
			t.Fatalf("format missing %q:\n%s", want, out)
		}
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "ranks,") || strings.Count(csv, "\n") != len(ladder)+1 {
		t.Fatalf("csv:\n%s", csv)
	}
}

func TestScaleSweepStrongHalvesPerRank(t *testing.T) {
	o := ScaleSmokeOptions()
	o.ScaleMode = StrongScaling
	res, err := RankAxis.Sweep(framework.MustLookup("Tracefs"), workload.PatternWorkload(workload.NToN), o)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Points); i++ {
		prev, cur := res.Points[i-1], res.Points[i]
		if cur.X == prev.X*2 && cur.PerRankBytes > prev.PerRankBytes {
			t.Fatalf("strong scaling per-rank grew: %d ranks = %d bytes, %d ranks = %d bytes",
				prev.X, prev.PerRankBytes, cur.X, cur.PerRankBytes)
		}
	}
	if !strings.Contains(res.Format(), "strong scaling") {
		t.Fatal("format missing mode")
	}
}

// TestScaleSweepDeterministic runs the same sweep twice and requires
// byte-identical rendering: rungs run concurrently on the scheduler, so
// each must be an independently seeded simulation with no shared state.
func TestScaleSweepDeterministic(t *testing.T) {
	o := ScaleSmokeOptions()
	run := func() string {
		res, err := RankAxis.Sweep(framework.MustLookup("LANL-Trace"), workload.PatternWorkload(workload.N1Strided), o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Format()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("scale sweep not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestScaleSweepDeterministic4096 is the batched-wake determinism test at
// ladder scale: two identical single-framework sweeps to a 4096-rank top
// rung, each against a fresh cache, must render byte-identically. The
// batched drain events (Mailbox.Put, Signal.Fire, WaitGroup.Add-to-zero)
// and the event-chain server paths carry no hidden iteration-order or
// timing dependence, however many waiters one instant accumulates at 4096
// ranks. Under -race (CI's determinism step) or -short the top rung drops
// to 1024 so the race-detector run stays affordable; the plain `go test`
// run exercises the full 4096 ladder.
func TestScaleSweepDeterministic4096(t *testing.T) {
	o := ScaleOptions()
	o.MaxRung = 4096
	o.PerRankBytes = 256 << 10
	if raceEnabled || testing.Short() {
		o.MaxRung = 1024
	}
	run := func() string {
		res, err := RankAxis.Sweep(framework.MustLookup("LANL-Trace"), workload.PatternWorkload(workload.N1Strided), o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Format()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("4096-rank scale sweep not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

func TestScaleMatrixCoversRegistry(t *testing.T) {
	o := ScaleSmokeOptions()
	o.MaxRung = 8
	o.Workloads = []workload.Workload{workload.PatternWorkload(workload.N1Strided)}
	m, err := RankAxis.MatrixSweep(o)
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
		if len(m.Series[i].Points) != len(RankAxis.ladder(o)) {
			t.Fatalf("series %d has %d points", i, len(m.Series[i].Points))
		}
	}
	out := m.Format()
	if !strings.Contains(out, "scaling matrix") || strings.Count(out, "# scale:") != len(m.Series) {
		t.Fatalf("matrix format:\n%s", out)
	}
}

func TestStrongScaleFloorsAtOneBlock(t *testing.T) {
	sc := workload.StrongScale(64<<10, 1<<20, 1024)
	if sc.Objects() != 1 {
		t.Fatalf("objects = %d, want floor 1", sc.Objects())
	}
	if got := sc.TotalBytes(1024); got != 1024*(64<<10) {
		t.Fatalf("realized total = %d", got)
	}
	weak := workload.WeakScale(64<<10, 1<<20)
	if weak.Objects() != 16 || weak.TotalBytes(8) != 8<<20 {
		t.Fatalf("weak scale: objects=%d total=%d", weak.Objects(), weak.TotalBytes(8))
	}
}
