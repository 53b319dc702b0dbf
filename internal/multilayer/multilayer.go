// Package multilayer implements multi-layer event trace analysis in the
// spirit of Lu & Shen (ICPP'07) — reference [6] of the paper, and the
// framework its future work says is next in line for classification ("we
// are working on using our taxonomy for full classification of more I/O
// Tracing Frameworks [6]").
//
// The tracer observes the same application simultaneously at three layers —
// the MPI library boundary, the system-call boundary, and the VFS/file-
// system boundary — and every record carries the causal span of the
// operation that issued it. Analyze projects each MPI I/O call's span
// subtree in the analysis package's span index onto three layers:
//
//	library  = MPI call time not spent in its system calls
//	kernel   = system-call time not spent in their file-system ops
//	storage  = file-system time (client striping, network, servers, disks)
//
// This is the cross-layer picture none of the single-layer frameworks can
// produce: exactly why a taxonomy user might pick it despite the heavier
// deployment.
package multilayer

import (
	"fmt"
	"strings"

	"iotaxo/internal/analysis"
	"iotaxo/internal/cluster"
	"iotaxo/internal/core"
	"iotaxo/internal/interpose"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
	"iotaxo/internal/vfs"
)

// Layer identifies an instrumentation layer.
type Layer int

// The instrumented layers. The first three are the classic Lu & Shen
// probes; the net/PFS/disk layers are the server-side extension that the
// causal-span propagation makes attributable.
const (
	LayerLibrary Layer = iota
	LayerSyscall
	LayerFS
	LayerNet
	LayerPFS
	LayerDisk
)

// Session is an attached multi-layer tracer.
type Session struct {
	cluster *cluster.Cluster
	lib     []*interpose.Collector // per rank
	sys     []*interpose.Collector // per rank
	fs      []*fsLayer             // per compute node
	srv     serverLayers           // net, PFS and disk
}

// serverLayers is the subscriber on the network's server-side tracepoint,
// one collector per server-side layer (indexed from LayerNet), split by
// Class. These records carry Rank -1 and global (env) timestamps; the span
// fields tie them back into the per-rank causal chains.
type serverLayers [3]interpose.Collector

func (*serverLayers) Enter(*sim.Proc, string) {}

func (l *serverLayers) Exit(_ *sim.Proc, r *trace.Record) {
	layer := LayerPFS
	switch r.Class {
	case trace.ClassNetMsg:
		layer = LayerNet
	case trace.ClassDiskIO:
		layer = LayerDisk
	}
	l[layer-LayerNet].Emit(r)
}

// Attach instruments every rank of the cluster at all three layers. Must
// run before the application; the hooks use the cheap in-process cost
// models (multi-layer tracing is implemented as compiled-in probes, not
// ptrace).
func Attach(c *cluster.Cluster) *Session {
	s := &Session{cluster: c}
	// firstRank maps each node to the first rank it hosts, the rank its FS
	// records are labelled with. Attribution follows spans, not this label.
	firstRank := make(map[string]int, c.World.Size())
	for i := 0; i < c.World.Size(); i++ {
		r := c.World.Rank(i)
		libCol := &interpose.Collector{}
		sysCol := &interpose.Collector{}
		r.Tracepoint().Attach(interpose.NewRecorder(interpose.Preload(), libCol))
		r.Proc().Tracepoint().Attach(interpose.NewRecorder(interpose.VFSHook(), sysCol))
		s.lib = append(s.lib, libCol)
		s.sys = append(s.sys, sysCol)
		if _, seen := firstRank[r.Node()]; !seen {
			firstRank[r.Node()] = i
		}
	}
	for _, k := range c.Kernels {
		lower, ok := k.MountedAt(cluster.PFSMount)
		if !ok {
			continue
		}
		rank, ok := firstRank[k.Node()]
		if !ok {
			rank = -1
		}
		fl := &fsLayer{lower: lower, kernel: k, rank: rank}
		k.Mount(cluster.PFSMount, fl)
		s.fs = append(s.fs, fl)
	}
	// Arm the three server-side layers: one delivery record per network
	// message, one per PFS request, one per RAID array call.
	c.Net.Tracepoint().Attach(&s.srv)
	return s
}

// fsLayer is the VFS-boundary probe: a thin instrumenting wrapper that
// timestamps with the node's local clock so intervals nest consistently
// with the syscall layer's records. Records land in a Collector, the same
// pipeline stand-in for a trace file the other two layers use.
type fsLayer struct {
	lower  vfs.Filesystem
	kernel *vfs.Kernel
	rank   int

	col interpose.Collector
}

func (f *fsLayer) FSName() string               { return f.lower.FSName() }
func (f *fsLayer) VNodeStackingSupported() bool { return vfs.CanStack(f.lower) }

// begin opens the FS op's causal span. It must run BEFORE the lower layer is
// called so that the client's RPCs (and everything beneath them) record this
// span as their parent; emit closes it.
func (f *fsLayer) begin(p *sim.Proc) (span, parent uint64, start sim.Time) {
	span = p.Env().NextSpanID()
	parent = p.SetSpan(span)
	return span, parent, p.Now()
}

func (f *fsLayer) emit(name, path string, offset, bytes int64, start sim.Time, span, parent uint64, p *sim.Proc) {
	p.SetSpan(parent)
	local := f.kernel.LocalTime(start)
	f.col.Emit(&trace.Record{
		Time:   local,
		Dur:    p.Now() - start,
		Node:   f.kernel.Node(),
		Rank:   f.rank,
		Class:  trace.ClassFSOp,
		Name:   name,
		Path:   path,
		Offset: offset,
		Bytes:  bytes,
		Ret:    "0",
		Span:   span,
		Parent: parent,
	})
}

// Open implements vfs.Filesystem.
func (f *fsLayer) Open(p *sim.Proc, path string, flags vfs.OpenFlag, mode int, cred vfs.Cred) (vfs.File, error) {
	span, parent, start := f.begin(p)
	file, err := f.lower.Open(p, path, flags, mode, cred)
	f.emit("VFS_open", path, 0, 0, start, span, parent, p)
	if err != nil {
		return nil, err
	}
	return &fsLayerFile{layer: f, lower: file, path: path}, nil
}

// Stat implements vfs.Filesystem.
func (f *fsLayer) Stat(p *sim.Proc, path string) (vfs.FileAttr, error) {
	span, parent, start := f.begin(p)
	attr, err := f.lower.Stat(p, path)
	f.emit("VFS_lookup", path, 0, 0, start, span, parent, p)
	return attr, err
}

// Unlink implements vfs.Filesystem.
func (f *fsLayer) Unlink(p *sim.Proc, path string, cred vfs.Cred) error {
	span, parent, start := f.begin(p)
	err := f.lower.Unlink(p, path, cred)
	f.emit("VFS_unlink", path, 0, 0, start, span, parent, p)
	return err
}

// Statfs implements vfs.Filesystem (not recorded: metadata chatter).
func (f *fsLayer) Statfs(p *sim.Proc) (vfs.StatfsInfo, error) { return f.lower.Statfs(p) }

type fsLayerFile struct {
	layer *fsLayer
	lower vfs.File
	path  string
}

func (h *fsLayerFile) WriteAt(p *sim.Proc, offset, length int64) (int64, error) {
	span, parent, start := h.layer.begin(p)
	n, err := h.lower.WriteAt(p, offset, length)
	h.layer.emit("VFS_write", h.path, offset, n, start, span, parent, p)
	return n, err
}

func (h *fsLayerFile) ReadAt(p *sim.Proc, offset, length int64) (int64, error) {
	span, parent, start := h.layer.begin(p)
	n, err := h.lower.ReadAt(p, offset, length)
	h.layer.emit("VFS_read", h.path, offset, n, start, span, parent, p)
	return n, err
}

func (h *fsLayerFile) Sync(p *sim.Proc) error {
	span, parent, start := h.layer.begin(p)
	err := h.lower.Sync(p)
	h.layer.emit("VFS_sync", h.path, 0, 0, start, span, parent, p)
	return err
}

func (h *fsLayerFile) Close(p *sim.Proc) error {
	span, parent, start := h.layer.begin(p)
	err := h.lower.Close(p)
	h.layer.emit("VFS_close", h.path, 0, 0, start, span, parent, p)
	return err
}

func (h *fsLayerFile) Attr() vfs.FileAttr { return h.lower.Attr() }

// LayerSource streams one layer's records across all ranks/nodes, in the
// order they were collected — the per-layer trace file read back.
func (s *Session) LayerSource(l Layer) trace.Source {
	var srcs []trace.Source
	switch l {
	case LayerLibrary:
		for _, c := range s.lib {
			srcs = append(srcs, c.Source())
		}
	case LayerSyscall:
		for _, c := range s.sys {
			srcs = append(srcs, c.Source())
		}
	case LayerFS:
		for _, fl := range s.fs {
			srcs = append(srcs, fl.col.Source())
		}
	case LayerNet, LayerPFS, LayerDisk:
		srcs = append(srcs, s.srv[l-LayerNet].Source())
	}
	return trace.ChainSources(srcs...)
}

// AllSource streams every layer's records back to back, client layers first,
// then the server-side net/PFS/disk layers.
func (s *Session) AllSource() trace.Source {
	return trace.ChainSources(
		s.LayerSource(LayerLibrary),
		s.LayerSource(LayerSyscall),
		s.LayerSource(LayerFS),
		s.LayerSource(LayerNet),
		s.LayerSource(LayerPFS),
		s.LayerSource(LayerDisk),
	)
}

// --- correlation ---

// CallBreakdown attributes one MPI I/O call's latency across layers.
type CallBreakdown struct {
	Rank    int
	Name    string
	Path    string
	Bytes   int64
	Total   sim.Duration
	Library sim.Duration
	Kernel  sim.Duration
	Storage sim.Duration
	// NestedSyscalls and NestedFSOps count the correlated events.
	NestedSyscalls int
	NestedFSOps    int
}

// Breakdown is the analysis result.
type Breakdown struct {
	Calls  []CallBreakdown
	Orphan int // syscall/FS events not attributable to any MPI call
}

// Analyze attributes every MPI I/O call's latency as a projection of the
// causal-span index over the three client layers: a call's syscalls are the
// records its span caused, and its FS ops are the records those syscalls'
// spans caused. Library is the call's exclusive time, Kernel the syscalls'
// summed exclusive time, and Storage the FS ops' summed duration. The join
// is global, so it holds however many ranks share a node's FS probe.
func (s *Session) Analyze() Breakdown {
	var recs []trace.Record
	for _, c := range s.lib {
		recs = append(recs, c.Records...)
	}
	nLib := len(recs)
	for _, c := range s.sys {
		recs = append(recs, c.Records...)
	}
	for _, fl := range s.fs {
		recs = append(recs, fl.col.Records...)
	}
	ix := analysis.IndexSpans(recs)
	out := Breakdown{Orphan: len(recs) - nLib}
	for i := range recs[:nLib] {
		r := &recs[i]
		if !strings.HasPrefix(r.Name, "MPI_File_") {
			continue
		}
		cb := CallBreakdown{
			Rank:    r.Rank,
			Name:    r.Name,
			Path:    r.Path,
			Bytes:   r.Bytes,
			Total:   r.Dur,
			Library: ix.Exclusive(i),
		}
		for _, j := range ix.Children(i) {
			cb.NestedSyscalls++
			cb.Kernel += ix.Exclusive(j)
			for _, k := range ix.Children(j) {
				cb.NestedFSOps++
				cb.Storage += recs[k].Dur
			}
		}
		out.Orphan -= cb.NestedSyscalls + cb.NestedFSOps
		out.Calls = append(out.Calls, cb)
	}
	return out
}

// LayerTotals sums the attribution across calls.
type LayerTotals struct {
	Total, Library, Kernel, Storage sim.Duration
	Calls                           int
}

// Totals aggregates the breakdown.
func (b Breakdown) Totals() LayerTotals {
	var t LayerTotals
	for _, c := range b.Calls {
		t.Total += c.Total
		t.Library += c.Library
		t.Kernel += c.Kernel
		t.Storage += c.Storage
		t.Calls++
	}
	return t
}

// Format renders the per-layer latency attribution.
func (b Breakdown) Format() string {
	t := b.Totals()
	var out strings.Builder
	out.WriteString("# multi-layer latency attribution (MPI I/O calls)\n")
	if t.Total == 0 {
		out.WriteString("# no calls observed\n")
		return out.String()
	}
	pct := func(d sim.Duration) float64 { return 100 * float64(d) / float64(t.Total) }
	fmt.Fprintf(&out, "%-10s %14s %8s\n", "layer", "time", "share")
	fmt.Fprintf(&out, "%-10s %14v %7.1f%%\n", "library", t.Library, pct(t.Library))
	fmt.Fprintf(&out, "%-10s %14v %7.1f%%\n", "kernel", t.Kernel, pct(t.Kernel))
	fmt.Fprintf(&out, "%-10s %14v %7.1f%%\n", "storage", t.Storage, pct(t.Storage))
	fmt.Fprintf(&out, "# %d MPI I/O calls, %d orphan lower-layer events\n", t.Calls, b.Orphan)
	return out.String()
}

// Classification positions the multi-layer analyzer in the taxonomy — the
// classification exercise the paper's future work announces for [6].
func Classification() *core.Classification {
	return &core.Classification{
		Name:             "Multi-Layer Trace Analysis",
		ParallelFSCompat: true,
		EaseOfInstall:    3, // probes at three layers, but no kernel module
		Anonymization:    core.ScaleNone,
		EventTypes: []core.EventType{
			core.EventLibCalls, core.EventSyscalls, core.EventFSOps,
		},
		TraceGranularity:  2,
		ReplayableTraces:  false,
		ReplayFidelity:    core.FidelityReport{Supported: false},
		RevealsDeps:       false,
		Intrusiveness:     2, // compiled-in probes, but no source changes
		AnalysisTools:     true,
		DataFormat:        core.FormatHumanReadable,
		AccountsSkewDrift: "No",
		CrossLayerSlicing: true,
		ElapsedOverhead: core.OverheadReport{
			Measured:    false,
			Description: "in-process probes at three layers; low single digits",
		},
		Notes: []string{
			"cross-layer latency attribution: library vs kernel vs storage",
			"classification exercise from the paper's future work [6]",
		},
	}
}
