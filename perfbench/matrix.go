package main

import (
	"fmt"
	"hash/fnv"
	"path"
	"reflect"
	"time"

	"iotaxo/internal/cluster"
	"iotaxo/internal/framework"
	"iotaxo/internal/harness"
	"iotaxo/internal/lanltrace"
	"iotaxo/internal/workload"
)

// matrix is one cold harness.MatrixSweep of every registered framework on
// every registered workload at the paper's 32 ranks, followed by an untimed
// warm pass on the same cache that must render identically and simulate
// nothing.
type matrix struct {
	opts       harness.Options
	swept      bool
	firstCold  harness.MatrixResult // the first checked cold sweep
	cold, warm harness.MatrixResult // the last checked sweeps
}

func matrixOptions(ranks int, perRank, seed int64) harness.Options {
	return harness.Options{
		Ranks:        ranks,
		PerRankBytes: perRank,
		BlockSizes:   []int64{64 << 10},
		Seed:         seed,
		Mode:         lanltrace.ModeLtrace,
	}
}

func (m *matrix) setup(b *bench) error {
	m.opts = matrixOptions(b.cfg.size.matrixRanks, b.cfg.size.matrixPerRank, b.cfg.seed)
	// Warm-up: the same sweep at an eighth of the data, on its own cache.
	warm := matrixOptions(b.cfg.size.matrixRanks, b.cfg.size.matrixPerRank/8, b.cfg.seed)
	warm.Cache = harness.NewCache("")
	_, err := b.call("harness.MatrixSweep", func() error {
		_, err := harness.MatrixSweep(warm)
		return err
	})
	return err
}

func (m *matrix) unit(b *bench) time.Duration {
	o := m.opts
	b.call("harness.NewCache", func() error { o.Cache = harness.NewCache(""); return nil })
	var cold, warm harness.MatrixResult
	d, err := b.call("harness.MatrixSweep", func() error {
		var err error
		cold, err = harness.MatrixSweep(o)
		return err
	})
	b.op("cold sweep", err)
	if err != nil {
		return d
	}
	_, err = b.tr.timed("harness.MatrixSweep.warm", func() error {
		var err error
		warm, err = harness.MatrixSweep(o)
		return err
	})
	b.op("warm sweep", err)
	if err != nil {
		return d
	}
	err = m.check(b, cold, warm)
	b.op("sweep checks", err)
	if err == nil {
		if !m.swept {
			m.firstCold, m.swept = cold, true
		}
		m.cold, m.warm = cold, warm
	}
	return d
}

// check verifies the sweep accounting and that the warm pass reproduces the
// cold one from the cache alone.
func (m *matrix) check(b *bench, cold, warm harness.MatrixResult) error {
	f, w := int64(len(framework.All())), int64(len(workload.All()))
	if cold.Stats.Executed != w*(f+1) || cold.Stats.Shared != w*(f-1) {
		return fmt.Errorf("cold sweep executed %d and shared %d simulations, want %d and %d",
			cold.Stats.Executed, cold.Stats.Shared, w*(f+1), w*(f-1))
	}
	if warm.Stats.Executed != 0 {
		return fmt.Errorf("warm sweep executed %d simulations", warm.Stats.Executed)
	}
	table := cold.Format()
	if warm.Format() != table {
		return fmt.Errorf("warm sweep renders differently from the cold sweep")
	}
	h := fnv.New64a()
	h.Write([]byte(table))
	return b.checkStats("sweep", map[string]float64{
		// The low 52 bits, so the digest survives float64 exactly.
		"format_fnv52": float64(h.Sum64() & (1<<52 - 1)),
		"executed":     float64(cold.Stats.Executed),
		"shared":       float64(cold.Stats.Shared),
	})
}

// module names a framework by the Go package that implements it.
func module(fw framework.Framework) string {
	t := reflect.TypeOf(fw)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return path.Base(t.PkgPath())
}

// layers replays the sweep serially outside the harness — every untraced
// baseline and every framework on every workload — for per-framework host
// times and trace volumes, then runs a Multi-Layer replica of each workload
// for the simulated-layer counts.
func (m *matrix) layers(b *bench) error {
	if !m.swept {
		return fmt.Errorf("no sweep passed its checks")
	}
	cfg := cluster.Default()
	cfg.ComputeNodes = m.opts.Ranks
	cfg.RanksPerNode = 1
	cfg.TotalRanks = m.opts.Ranks
	cfg.Seed = m.opts.Seed
	sc := workload.WeakScale(m.opts.BlockSizes[0], m.opts.PerRankBytes)
	events := make(map[string]int64) // "<framework>\x00<workload>" -> sweep's trace events
	for _, c := range m.firstCold.Cells {
		events[c.Framework+"\x00"+c.Workload] = c.Points[0].TraceEvents
	}

	sim := make(map[string]float64)
	var replay time.Duration
	start := b.tr.begin("replay")
	for _, w := range workload.All() {
		spec := w.Spec(sc)
		var c *cluster.Cluster
		d1, _ := b.call("cluster.New", func() error { c = cluster.New(cfg); return nil })
		d2, _ := b.call("framework.RunWorkload", func() error { framework.RunWorkload(c, spec); return nil })
		replay += d1 + d2
		addStats(sim, simStats(c))
		for _, fw := range framework.All() {
			var (
				sess framework.Session
				rep  framework.Report
			)
			d1, _ := b.call("cluster.New", func() error { c = cluster.New(cfg); return nil })
			d2, _ := b.call("framework.Attach", func() error { sess = fw.Attach(c); return nil })
			d3, err := b.call("Session.Run", func() error {
				var err error
				rep, err = sess.Run(spec)
				return err
			})
			d4, derr := b.call("Session.Sources", func() error { _, err := drain(sess.Sources()); return err })
			replay += d1 + d2 + d3 + d4
			if err == nil {
				err = derr
			}
			if err == nil && rep.TraceEvents != events[fw.Name()+"\x00"+w.Name()] {
				err = fmt.Errorf("%d trace events, the sweep recorded %d", rep.TraceEvents, events[fw.Name()+"\x00"+w.Name()])
			}
			b.op(fmt.Sprintf("replay %s on %s", fw.Name(), w.Name()), err)
			mod := module(fw)
			b.layer[mod+".run_s"] += d3.Seconds()
			b.layer[mod+".trace_events"] += float64(rep.TraceEvents)
			addStats(sim, simStats(c))
		}
	}
	b.tr.end(start)
	b.op("replay statistics", b.checkStats("replay", sim))
	b.layer["sim.spans"] = sim["spans"]
	b.layer["sim.spawned"] = sim["spawned"]
	b.layer["sim.virtual_s"] = sim["virtual_ns"] / 1e9
	setCallMetrics(b, "replay")

	counts, excl := make(map[string]float64), make(map[string]float64)
	for _, w := range workload.All() {
		start := b.tr.begin("replica")
		recs, _, _, err := multiLayerRun(b, cfg, w.Spec(sc))
		var c, e map[string]float64
		if err == nil {
			c, e, err = layerCounts(b, recs)
		}
		b.tr.end(start)
		b.op("multi-layer replica of "+w.Name(), err)
		addStats(counts, c)
		addStats(excl, e)
	}
	b.op("replica statistics", b.checkStats("replica", counts))
	setLayerMetrics(b, counts, excl)

	cold, warm := m.cold, m.warm
	matrixS := median(b.tr.perRoot("unit", "harness.MatrixSweep"))
	b.layer["harness.executed"] = float64(cold.Stats.Executed)
	b.layer["harness.shared"] = float64(cold.Stats.Shared)
	if n := warm.Stats.Hits() + warm.Stats.Executed; n > 0 {
		b.layer["harness.cache_hit_ratio"] = float64(warm.Stats.Hits()) / float64(n)
	}
	b.layer["harness.peak_concurrency"] = float64(cold.Stats.PeakConcurrency)
	if matrixS > 0 && cold.Stats.PoolSize > 0 {
		b.layer["harness.parallel_efficiency"] = replay.Seconds() / (matrixS * float64(cold.Stats.PoolSize))
	}
	return nil
}
