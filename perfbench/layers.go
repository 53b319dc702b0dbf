package main

import (
	"fmt"
	"io"

	"iotaxo/internal/analysis"
	"iotaxo/internal/cluster"
	"iotaxo/internal/framework"
	"iotaxo/internal/multilayer"
	"iotaxo/internal/trace"
	"iotaxo/internal/workload"
)

// simLayers names the simulated layers by module, keyed by the record
// class the Multi-Layer tracer emits for them: the metric prefix, the count
// metric, and the analysis.SliceLayer bucket.
var simLayers = []struct {
	class  trace.EventClass
	prefix string
	count  string
	slice  string
}{
	{trace.ClassMPI, "mpi", "mpi.ops", "library"},
	{trace.ClassSyscall, "vfs.syscalls", "vfs.syscalls", "kernel"},
	{trace.ClassFSOp, "vfs.fs_ops", "vfs.fs_ops", "vfs"},
	{trace.ClassNetMsg, "netsim", "netsim.msgs", "net"},
	{trace.ClassPFSOp, "pfs", "pfs.ops", "pfs"},
	{trace.ClassDiskIO, "disk", "disk.ios", "disk"},
}

// simStats is the simulated work of one cluster after its run: spans
// allocated, processes spawned, virtual nanoseconds elapsed.
func simStats(c *cluster.Cluster) map[string]float64 {
	return map[string]float64{
		"spans":      float64(c.Env.NextSpanID() - 1),
		"spawned":    float64(c.Env.TotalSpawned()),
		"virtual_ns": float64(c.Env.Now()),
	}
}

// addStats adds src into dst.
func addStats(dst, src map[string]float64) {
	for k, v := range src {
		dst[k] += v
	}
}

// drain reads every source to the end and counts its records.
func drain(srcs []trace.Source) (int64, error) {
	var n int64
	for _, src := range srcs {
		for {
			_, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return n, err
			}
			n++
		}
	}
	return n, nil
}

// multiLayerRun simulates spec on a fresh cluster under the Multi-Layer
// tracer and returns the records of all six layers, the cluster and the
// application result.
func multiLayerRun(b *bench, cfg cluster.Config, spec workload.Spec) ([]trace.Record, *cluster.Cluster, workload.Result, error) {
	var (
		c    *cluster.Cluster
		ml   *multilayer.Session
		res  workload.Result
		recs []trace.Record
	)
	b.call("cluster.New", func() error { c = cluster.New(cfg); return nil })
	b.call("multilayer.Attach", func() error { ml = multilayer.Attach(c); return nil })
	b.call("multilayer.RunWorkload", func() error { res = framework.RunWorkload(c, spec); return nil })
	_, err := b.call("multilayer.AllSource", func() error {
		var err error
		recs, err = trace.Collect(ml.AllSource())
		return err
	})
	return recs, c, res, err
}

// layerCounts is the simulated per-layer work in a Multi-Layer trace:
// records and summed simulated nanoseconds per layer (integer-valued, so
// the reference comparison is exact), and separately each layer's
// exclusive nanoseconds from analysis.SliceRecords, which are reported but
// not checked: slicing does not yet conserve time.
func layerCounts(b *bench, recs []trace.Record) (counts, excl map[string]float64, err error) {
	out := make(map[string]float64)
	excl = make(map[string]float64)
	for i := range recs {
		r := &recs[i]
		for _, l := range simLayers {
			if l.class == r.Class {
				out[l.count]++
				out[l.prefix+".busy_ns"] += float64(r.Dur)
			}
		}
	}
	var sl *analysis.Slice
	b.call("analysis.SliceRecords", func() error { sl = analysis.SliceRecords(recs, 0); return nil })
	for _, ls := range sl.Layers {
		matched := false
		for _, l := range simLayers {
			if l.slice == ls.Layer {
				excl[l.prefix] += float64(ls.Exclusive)
				matched = true
			}
		}
		if !matched {
			return nil, nil, fmt.Errorf("slice layer %q has no module", ls.Layer)
		}
	}
	return out, excl, nil
}

// conservation is the sum of per-layer exclusive time over root (library)
// time; a slicing that conserves time gives 1.
func conservation(sl *analysis.Slice) float64 {
	var excl, root float64
	for _, ls := range sl.Layers {
		excl += ls.Exclusive.Seconds()
		if ls.Layer == "library" {
			root = ls.Total.Seconds()
		}
	}
	if root == 0 {
		return 0
	}
	return excl / root
}

// setLayerMetrics publishes layerCounts totals as per-layer metrics.
func setLayerMetrics(b *bench, counts, excl map[string]float64) {
	for _, l := range simLayers {
		b.layer[l.count] = counts[l.count]
		b.layer[l.prefix+".sim_busy_s"] = counts[l.prefix+".busy_ns"] / 1e9
		b.layer[l.prefix+".sim_excl_s"] = excl[l.prefix] / 1e9
	}
}
