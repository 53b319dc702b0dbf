// Package trace defines the trace data model shared by every I/O tracing
// framework in this repository, together with the two on-disk formats the
// paper's taxonomy distinguishes:
//
//   - a human-readable, strace-like text format (LANL-Trace and //TRACE emit
//     human-readable traces), round-trippable through a parser so analysis
//     and replay tools can consume it; and
//   - a binary format (Tracefs emits binary traces) with varint encoding,
//     per-block CRC-32 checksums, and optional flate compression, matching
//     Tracefs's "binary, with optional checksumming, compression, ... or
//     buffering" description.
package trace

import (
	"fmt"
	"strings"

	"iotaxo/internal/sim"
)

// EventClass partitions traced events along the taxonomy's "Event types"
// axis: system calls (strace), library calls (ltrace, LD_PRELOAD
// interposition), MPI calls, and file-system (VFS) operations (Tracefs).
type EventClass uint8

const (
	// ClassSyscall is a kernel system call (SYS_open, SYS_write, ...).
	ClassSyscall EventClass = iota
	// ClassLibCall is a linked-library call seen by ltrace-style tracing.
	ClassLibCall
	// ClassMPI is an MPI or MPI-IO library call.
	ClassMPI
	// ClassFSOp is a VFS-level file system operation (what Tracefs sees),
	// including operations invisible at the syscall boundary such as
	// memory-mapped writeback.
	ClassFSOp
	// ClassPFSOp is a parallel-file-system server-side operation (data or
	// metadata request handling on an object or metadata server).
	ClassPFSOp
	// ClassNetMsg is a network message delivery between cluster nodes.
	ClassNetMsg
	// ClassDiskIO is a physical disk/RAID array access.
	ClassDiskIO

	numClasses
)

// String implements fmt.Stringer.
func (c EventClass) String() string {
	switch c {
	case ClassSyscall:
		return "syscall"
	case ClassLibCall:
		return "libcall"
	case ClassMPI:
		return "mpi"
	case ClassFSOp:
		return "fsop"
	case ClassPFSOp:
		return "pfsop"
	case ClassNetMsg:
		return "netmsg"
	case ClassDiskIO:
		return "diskio"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// ParseClass inverts String.
func ParseClass(s string) (EventClass, error) {
	switch s {
	case "syscall":
		return ClassSyscall, nil
	case "libcall":
		return ClassLibCall, nil
	case "mpi":
		return ClassMPI, nil
	case "fsop":
		return ClassFSOp, nil
	case "pfsop":
		return ClassPFSOp, nil
	case "netmsg":
		return ClassNetMsg, nil
	case "diskio":
		return ClassDiskIO, nil
	}
	return 0, fmt.Errorf("trace: unknown event class %q", s)
}

// Record is one traced event. Time is the *local* wall-clock timestamp of
// the node that recorded it (clock skew and drift included); analysis tools
// correct it onto a shared timeline using the barrier samples LANL-Trace
// collects.
type Record struct {
	Time  sim.Time     // node-local timestamp at call entry
	Dur   sim.Duration // time spent inside the call
	Node  string       // host name
	Rank  int          // MPI rank, -1 if not an MPI process
	PID   int          // process id on the node
	Class EventClass
	Name  string   // call name, e.g. "SYS_write" or "MPI_File_open"
	Args  []string // pre-formatted arguments
	Ret   string   // formatted return value

	// Structured I/O fields, set when the event moves bytes; replay and
	// anonymization operate on these rather than re-parsing Args.
	Path   string
	Offset int64
	Bytes  int64
	UID    int
	GID    int

	// Causal span identity: Span is this operation's own span id, Parent is
	// the span of the operation that caused it (0 = none/unknown). Spans are
	// allocated by sim.Env.NextSpanID and let cross-layer analyses join
	// records exactly instead of by time-window correlation.
	Span   uint64
	Parent uint64
}

// HasSpan reports whether the record carries causal span identity.
func (r *Record) HasSpan() bool { return r.Span != 0 || r.Parent != 0 }

// IsIO reports whether the record moved file data.
func (r *Record) IsIO() bool { return r.Bytes > 0 }

// Ret formats a call's outcome as a record's return value: "0" on
// success, "-1 " and the error text on failure.
func Ret(err error) string {
	if err == nil {
		return "0"
	}
	return "-1 " + err.Error()
}

// IODir classifies a record's data-movement direction.
type IODir uint8

const (
	// DirNone marks records that move bytes in no single direction an
	// analysis should bucket — mmap regions, syncs, readdir-style metadata.
	DirNone IODir = iota
	// DirRead marks data read from a file.
	DirRead
	// DirWrite marks data written to a file.
	DirWrite
)

// readOps and writeOps are the call names every emitter in this repository
// produces for directional data movement; Direction consults them before
// falling back to a name heuristic for out-of-tree frameworks.
var (
	readOps = map[string]struct{}{
		"SYS_read": {}, "SYS_pread": {},
		"MPI_File_read": {}, "MPI_File_read_at": {}, "MPI_File_read_at_all": {},
		"VFS_read": {}, "PFS_read": {}, "DISK_read": {},
	}
	writeOps = map[string]struct{}{
		"SYS_write": {}, "SYS_pwrite": {},
		"MPI_File_write": {}, "MPI_File_write_at": {}, "MPI_File_write_at_all": {},
		"VFS_write": {}, "VFS_writepage": {}, "PFS_write": {}, "DISK_write": {},
	}
)

// Direction reports which way the record moved file data. Unknown names
// fall back to a substring heuristic ("write" wins, then "read" — but not
// "readdir"); byte-carrying records that are neither (SYS_mmap, syncs)
// report DirNone, so analyses must not lump them into either bucket.
func (r *Record) Direction() IODir {
	if _, ok := writeOps[r.Name]; ok {
		return DirWrite
	}
	if _, ok := readOps[r.Name]; ok {
		return DirRead
	}
	name := strings.ToLower(r.Name)
	if strings.Contains(name, "write") {
		return DirWrite
	}
	if strings.Contains(name, "read") && !strings.Contains(name, "readdir") {
		return DirRead
	}
	return DirNone
}

// Clone returns a deep copy (Args shared slices are copied).
func (r *Record) Clone() Record {
	out := *r
	out.Args = append([]string(nil), r.Args...)
	return out
}

// FormatLocalTime renders a node-local timestamp in the HH:MM:SS.micros
// style LANL-Trace inherits from strace -tt (Figure 1 of the paper).
func FormatLocalTime(t sim.Time) string {
	ns := int64(t)
	if ns < 0 {
		ns = 0
	}
	sec := ns / int64(sim.Second)
	micro := (ns % int64(sim.Second)) / 1000
	h := sec / 3600 % 24
	m := sec / 60 % 60
	s := sec % 60
	return fmt.Sprintf("%02d:%02d:%02d.%06d", h, m, s, micro)
}

// CallString renders "Name(arg, arg, ...)".
func (r *Record) CallString() string {
	return r.Name + "(" + strings.Join(r.Args, ", ") + ")"
}

// wireSizeEstimate approximates the serialized size of the record in the
// text format; tracers use it to charge simulated output cost.
func (r *Record) wireSizeEstimate() int64 {
	n := 16 + len(r.Name) + len(r.Ret) + len(r.Node) + 24
	for _, a := range r.Args {
		n += len(a) + 2
	}
	return int64(n)
}

// EstimatedTextSize is the exported wrapper for overhead models.
func (r *Record) EstimatedTextSize() int64 { return r.wireSizeEstimate() }
