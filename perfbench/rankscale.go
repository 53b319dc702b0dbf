package main

import (
	"fmt"
	"time"

	"iotaxo/internal/cluster"
	"iotaxo/internal/framework"
	"iotaxo/internal/workload"
)

// rankScale is one harness-style cell at a high rank count: LANL-Trace on
// N-1 strided, one 64 KiB block per rank on single-rank nodes, run as an
// untraced baseline plus a traced run, each on a fresh cluster. The data
// path does almost nothing, so per-rank fixed costs of the simulator carry
// the load.
type rankScale struct {
	fw    framework.Framework
	w     workload.Workload
	block int64
}

func rankScaleConfig(ranks int, seed int64) cluster.Config {
	cfg := cluster.Default()
	cfg.ComputeNodes = ranks
	cfg.RanksPerNode = 1
	cfg.TotalRanks = ranks
	cfg.Seed = seed
	return cfg
}

func (r *rankScale) setup(b *bench) error {
	fw, ok := framework.Lookup("LANL-Trace")
	if !ok {
		return fmt.Errorf("LANL-Trace is not registered")
	}
	w, ok := workload.ByName("N-1 strided")
	if !ok {
		return fmt.Errorf("N-1 strided is not registered")
	}
	r.fw, r.w, r.block = fw, w, 64<<10
	// Warm-up: one small cell, so the first timed cell pays no lazy set-up.
	_, err := r.cell(b, b.cfg.size.warmRanks)
	return err
}

func (r *rankScale) spec() workload.Spec {
	return r.w.Spec(workload.WeakScale(r.block, r.block))
}

// cell runs the untraced baseline and the traced run and returns their
// simulated statistics.
func (r *rankScale) cell(b *bench, ranks int) (map[string]float64, error) {
	cfg := rankScaleConfig(ranks, b.cfg.seed)
	spec := r.spec()
	var (
		base, traced *cluster.Cluster
		res          workload.Result
		sess         framework.Session
		rep          framework.Report
		records      int64
	)
	b.call("cluster.New", func() error { base = cluster.New(cfg); return nil })
	b.call("framework.RunWorkload", func() error { res = framework.RunWorkload(base, spec); return nil })
	b.call("cluster.New", func() error { traced = cluster.New(cfg); return nil })
	b.call("framework.Attach", func() error { sess = r.fw.Attach(traced); return nil })
	if _, err := b.call("Session.Run", func() error {
		var err error
		rep, err = sess.Run(spec)
		return err
	}); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if _, err := b.call("Session.Sources", func() error {
		var err error
		records, err = drain(sess.Sources())
		return err
	}); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}

	want := int64(ranks) * r.block
	if res.Bytes != want || rep.Result.Bytes != want {
		return nil, fmt.Errorf("bytes moved: untraced %d, traced %d, want %d", res.Bytes, rep.Result.Bytes, want)
	}
	if records == 0 || rep.TraceEvents == 0 {
		return nil, fmt.Errorf("traced run recorded nothing")
	}
	st := simStats(base)
	addStats(st, simStats(traced))
	st["bytes"] = float64(res.Bytes + res.BytesRead + rep.Result.Bytes + rep.Result.BytesRead)
	st["trace_events"] = float64(rep.TraceEvents)
	st["trace_records"] = float64(records)
	return st, nil
}

func (r *rankScale) unit(b *bench) time.Duration {
	start := time.Now()
	st, err := r.cell(b, b.cfg.size.rankScaleRanks)
	d := time.Since(start)
	if err == nil {
		err = b.checkStats("cell", st)
	}
	b.op("cell", err)
	return d
}

// layers adds a Multi-Layer replica of the cell's workload for the
// simulated-layer counts, then derives the per-layer metrics from the
// spans of the timed cells.
func (r *rankScale) layers(b *bench) error {
	ranks := b.cfg.size.rankScaleRanks
	start := b.tr.begin("replica")
	recs, _, res, err := multiLayerRun(b, rankScaleConfig(ranks, b.cfg.seed), r.spec())
	var counts, excl map[string]float64
	if err == nil {
		counts, excl, err = layerCounts(b, recs)
	}
	b.tr.end(start)
	if err == nil && res.Bytes != int64(ranks)*r.block {
		err = fmt.Errorf("replica moved %d bytes", res.Bytes)
	}
	if err == nil {
		err = b.checkStats("replica", counts)
	}
	b.op("multi-layer replica", err)
	setLayerMetrics(b, counts, excl)

	st := b.first["cell"]
	b.layer["sim.spans"] = st["spans"]
	b.layer["sim.spawned"] = st["spawned"]
	b.layer["sim.virtual_s"] = st["virtual_ns"] / 1e9
	setCallMetrics(b, "unit")
	return nil
}

// setCallMetrics derives the cluster and framework per-layer metrics, each
// the median over root spans named root of the per-root sum of one call.
func setCallMetrics(b *bench, root string) {
	m := func(call string) float64 { return median(b.tr.perRoot(root, call)) }
	b.layer["cluster.new_s"] = m("cluster.New")
	b.layer["framework.attach_s"] = m("framework.Attach")
	b.layer["framework.untraced_run_s"] = m("framework.RunWorkload")
	b.layer["framework.traced_run_s"] = m("Session.Run")
	b.layer["framework.drain_s"] = m("Session.Sources")
	if spans := b.layer["sim.spans"]; spans > 0 {
		b.layer["sim.host_ns_per_span"] = (b.layer["framework.untraced_run_s"] + b.layer["framework.traced_run_s"]) * 1e9 / spans
	}
}
