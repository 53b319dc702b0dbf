package analysis

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// Cross-layer latency slicing over causal spans (ReLayTracer-style): every
// record carries the span of the operation that issued it, so a trace that
// mixes library, kernel, VFS, network, PFS and disk records can be sliced
// into per-layer exclusive times — the time each layer spent that is NOT
// covered by the operations it caused one layer down.

// SliceLayer buckets record classes into slicing layers.
func SliceLayer(c trace.EventClass) string {
	switch c {
	case trace.ClassMPI:
		return "library"
	case trace.ClassSyscall:
		return "kernel"
	case trace.ClassFSOp:
		return "vfs"
	case trace.ClassNetMsg:
		return "net"
	case trace.ClassPFSOp:
		return "pfs"
	case trace.ClassDiskIO:
		return "disk"
	default:
		return c.String()
	}
}

// sliceLayerOrder fixes the top-down rendering order of the layers.
var sliceLayerOrder = []string{"library", "kernel", "vfs", "net", "pfs", "disk"}

// LayerSlice is one layer's share of a slicing result.
type LayerSlice struct {
	Layer     string
	Records   int
	Total     sim.Duration // sum of record durations in this layer
	Exclusive sim.Duration // total minus time covered by direct children
}

// PathStep is one hop of a critical path: the longest-duration child chain
// below a root operation.
type PathStep struct {
	Layer string
	Name  string
	Node  string
	Dur   sim.Duration
}

// CriticalPath is the max-duration descent from one slow root operation.
type CriticalPath struct {
	Root  trace.Record
	Steps []PathStep
}

// Slice is the full slicing result for a record set.
type Slice struct {
	Layers   []LayerSlice
	Spanless int // records without span info (excluded from attribution)
	Paths    []CriticalPath
}

// SpanIndex is the causal-span index over one record set: for every span,
// the positions of the records it directly caused. It is the one join the
// cross-layer analyses read — SliceRecords for per-layer exclusive time and
// critical paths, multilayer.Analyze for per-call attribution.
type SpanIndex struct {
	recs     []trace.Record
	children map[uint64][]int
	haveSpan map[uint64]bool
}

// IndexSpans indexes recs by parent span. Records without span info are
// nobody's child.
func IndexSpans(recs []trace.Record) *SpanIndex {
	ix := &SpanIndex{
		recs:     recs,
		children: make(map[uint64][]int),
		haveSpan: make(map[uint64]bool, len(recs)),
	}
	for i := range recs {
		r := &recs[i]
		if !r.HasSpan() {
			continue
		}
		ix.haveSpan[r.Span] = true
		if r.Parent != 0 {
			ix.children[r.Parent] = append(ix.children[r.Parent], i)
		}
	}
	return ix
}

// Children returns the positions of the records recs[i] directly caused,
// in record order.
func (ix *SpanIndex) Children(i int) []int { return ix.children[ix.recs[i].Span] }

// Exclusive returns recs[i]'s duration minus the summed durations of its
// direct children, clamped at zero: parallel children (striped RPCs, RAID
// fan-out) can overlap their parent.
func (ix *SpanIndex) Exclusive(i int) sim.Duration {
	excl := ix.recs[i].Dur
	for _, c := range ix.Children(i) {
		excl -= ix.recs[c].Dur
	}
	return max(excl, 0)
}

// root reports whether recs[i] carries span info and its parent span does
// not appear in the set.
func (ix *SpanIndex) root(i int) bool {
	r := &ix.recs[i]
	return r.HasSpan() && (r.Parent == 0 || !ix.haveSpan[r.Parent])
}

// SliceRecords attributes latency across layers by exclusive time
// (SpanIndex.Exclusive). Roots are records whose parent span does not
// appear in the set. maxPaths limits the critical-path breakdowns reported
// for the slowest roots (0 = none).
func SliceRecords(recs []trace.Record, maxPaths int) *Slice {
	ix := IndexSpans(recs)
	out := &Slice{}
	layers := make(map[string]*LayerSlice)
	var roots []int
	for i := range recs {
		r := &recs[i]
		if !r.HasSpan() {
			out.Spanless++
			continue
		}
		name := SliceLayer(r.Class)
		ls, ok := layers[name]
		if !ok {
			ls = &LayerSlice{Layer: name}
			layers[name] = ls
		}
		ls.Records++
		ls.Total += r.Dur
		ls.Exclusive += ix.Exclusive(i)
		if ix.root(i) {
			roots = append(roots, i)
		}
	}
	for _, name := range sliceLayerOrder {
		if ls, ok := layers[name]; ok {
			out.Layers = append(out.Layers, *ls)
			delete(layers, name)
		}
	}
	// Any layer outside the canonical six (unknown classes) goes last.
	var rest []string
	for name := range layers {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	for _, name := range rest {
		out.Layers = append(out.Layers, *layers[name])
	}
	if maxPaths > 0 {
		sort.SliceStable(roots, func(a, b int) bool { return recs[roots[a]].Dur > recs[roots[b]].Dur })
		if len(roots) > maxPaths {
			roots = roots[:maxPaths]
		}
		for _, ri := range roots {
			out.Paths = append(out.Paths, ix.criticalPath(ri))
		}
	}
	return out
}

// criticalPath walks the max-duration child at every level below root.
func (ix *SpanIndex) criticalPath(root int) CriticalPath {
	cp := CriticalPath{Root: ix.recs[root]}
	cur := root
	for {
		kids := ix.Children(cur)
		if len(kids) == 0 {
			break
		}
		best := kids[0]
		for _, k := range kids[1:] {
			if ix.recs[k].Dur > ix.recs[best].Dur {
				best = k
			}
		}
		r := &ix.recs[best]
		cp.Steps = append(cp.Steps, PathStep{
			Layer: SliceLayer(r.Class), Name: r.Name, Node: r.Node, Dur: r.Dur,
		})
		cur = best
	}
	return cp
}

// SliceSource drains a record stream and slices it.
func SliceSource(src trace.Source, maxPaths int) (*Slice, error) {
	var recs []trace.Record
	for {
		r, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
	return SliceRecords(recs, maxPaths), nil
}

// Format renders the slicing result.
func (s *Slice) Format() string {
	var b strings.Builder
	b.WriteString("# cross-layer latency slicing (exclusive time per layer)\n")
	var exclSum sim.Duration
	for _, ls := range s.Layers {
		exclSum += ls.Exclusive
	}
	if exclSum == 0 {
		b.WriteString("# no span-carrying records\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-10s %8s %14s %14s %8s\n", "layer", "records", "total", "exclusive", "share")
	for _, ls := range s.Layers {
		fmt.Fprintf(&b, "%-10s %8d %14v %14v %7.1f%%\n",
			ls.Layer, ls.Records, ls.Total, ls.Exclusive,
			100*float64(ls.Exclusive)/float64(exclSum))
	}
	if s.Spanless > 0 {
		fmt.Fprintf(&b, "# %d records without span info excluded\n", s.Spanless)
	}
	for i, cp := range s.Paths {
		fmt.Fprintf(&b, "# critical path %d: %s rank=%d %v\n", i+1, cp.Root.Name, cp.Root.Rank, cp.Root.Dur)
		for _, st := range cp.Steps {
			fmt.Fprintf(&b, "#   %-8s %-16s %-14s %v\n", st.Layer, st.Name, st.Node, st.Dur)
		}
	}
	return b.String()
}
