package vfs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"iotaxo/internal/clocks"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// KernelConfig tunes per-node kernel costs.
type KernelConfig struct {
	SyscallCost sim.Duration // base user/kernel crossing cost per syscall
}

// DefaultKernelConfig matches a 2007-era Linux 2.6 node.
func DefaultKernelConfig() KernelConfig {
	return KernelConfig{SyscallCost: 1 * sim.Microsecond}
}

// Kernel is one node's operating system: mount table, process table, and
// the syscall boundary where tracers interpose.
type Kernel struct {
	env     *sim.Env
	node    string
	clock   *clocks.Clock
	cfg     KernelConfig
	mounts  []mountEntry
	procs   []*ProcCtx
	nextPID int

	// SyscallCount aggregates all syscalls served, for analysis.
	SyscallCount int64
}

type mountEntry struct {
	prefix string
	fs     Filesystem
}

// NewKernel creates a kernel for the named node. clock supplies the node's
// local wall time for trace timestamps; pass clocks.New(0,0) for a perfect
// clock.
func NewKernel(env *sim.Env, node string, clock *clocks.Clock, cfg KernelConfig) *Kernel {
	return &Kernel{env: env, node: node, clock: clock, cfg: cfg}
}

// Node returns the node name.
func (k *Kernel) Node() string { return k.node }

// Clock returns the node's wall clock.
func (k *Kernel) Clock() *clocks.Clock { return k.clock }

// LocalTime converts the current global instant to this node's wall time.
func (k *Kernel) LocalTime(global sim.Time) sim.Time { return k.clock.Local(global) }

// Mount attaches fs at the given path prefix. Longest prefix wins at
// resolution time; mounting an already-mounted prefix replaces it (the
// remount instrumentation layers rely on).
func (k *Kernel) Mount(prefix string, fs Filesystem) {
	for i := range k.mounts {
		if k.mounts[i].prefix == prefix {
			k.mounts[i].fs = fs
			return
		}
	}
	k.mounts = append(k.mounts, mountEntry{prefix: prefix, fs: fs})
	sort.SliceStable(k.mounts, func(i, j int) bool {
		return len(k.mounts[i].prefix) > len(k.mounts[j].prefix)
	})
}

// MountedAt returns the file system currently mounted at exactly prefix.
func (k *Kernel) MountedAt(prefix string) (Filesystem, bool) {
	for _, m := range k.mounts {
		if m.prefix == prefix {
			return m.fs, true
		}
	}
	return nil, false
}

// Resolve returns the file system serving path.
func (k *Kernel) Resolve(path string) (Filesystem, error) {
	for _, m := range k.mounts {
		if strings.HasPrefix(path, m.prefix) {
			return m.fs, nil
		}
	}
	return nil, fmt.Errorf("%w: %s", ErrNoMount, path)
}

// Spawn creates a process context on this node.
func (k *Kernel) Spawn(cred Cred) *ProcCtx {
	k.nextPID++
	pc := &ProcCtx{
		kernel: k,
		pid:    10000 + k.nextPID,
		cred:   cred,
		nextFD: 3, // 0,1,2 reserved as on Unix
		rank:   -1,
	}
	k.procs = append(k.procs, pc)
	return pc
}

// Procs returns the node's process table in spawn order.
func (k *Kernel) Procs() []*ProcCtx { return k.procs }

// ProcCtx is one process's kernel-side state: credentials, fd table, and the
// syscall tracepoint tracers subscribe to.
type ProcCtx struct {
	kernel *Kernel
	pid    int
	rank   int
	cred   Cred
	// fds is the descriptor table, indexed by fd-3 (0,1,2 reserved as on
	// Unix). Descriptor numbers are never reused — they appear verbatim in
	// trace records, so reuse would change trace output — which makes the
	// table an append-only slice of values instead of a map of pointers:
	// one allocation per process at 65536 ranks instead of one per open.
	// A closed entry keeps its slot with file == nil.
	fds    []fdEntry
	nextFD int
	tp     trace.Point
}

type fdEntry struct {
	file  File
	path  string
	pos   int64
	flags OpenFlag
}

// PID returns the process id.
func (pc *ProcCtx) PID() int { return pc.pid }

// Cred returns the process credentials.
func (pc *ProcCtx) Cred() Cred { return pc.cred }

// SetRank labels the process with its MPI rank for trace records.
func (pc *ProcCtx) SetRank(rank int) { pc.rank = rank }

// Rank returns the MPI rank label (-1 when not set).
func (pc *ProcCtx) Rank() int { return pc.rank }

// Kernel returns the owning kernel.
func (pc *ProcCtx) Kernel() *Kernel { return pc.kernel }

// Tracepoint returns the process's syscall tracepoint, where strace-style
// tracers subscribe.
func (pc *ProcCtx) Tracepoint() *trace.Point { return &pc.tp }

// syscall wraps the execution of one system call with tracepoint entry/exit,
// the base kernel-crossing cost, and record construction. args renders the
// call's formatted argument list; it is only invoked when the tracepoint is
// armed, so untraced runs — half of every overhead sweep — pay no
// string-formatting or slice-allocation cost per call. Laziness cannot
// change simulated time: argument rendering charges no virtual cost.
func (pc *ProcCtx) syscall(p *sim.Proc, name string, args func() []string, body func() (ret string, rec func(*trace.Record))) string {
	pc.tp.Enter(p, name)
	// Unconditional span allocation (pure counter, schedule-neutral): child
	// layers inherit the context even when only a deeper tracer is attached.
	span := p.Env().NextSpanID()
	parent := p.SetSpan(span)
	start := p.Now()
	p.Sleep(pc.kernel.cfg.SyscallCost)
	ret, enrich := body()
	dur := p.Now() - start
	p.SetSpan(parent)
	pc.kernel.SyscallCount++
	if pc.tp.Armed() {
		rec := trace.Record{
			Time:   pc.kernel.LocalTime(start),
			Dur:    dur,
			Node:   pc.kernel.node,
			Rank:   pc.rank,
			PID:    pc.pid,
			Class:  trace.ClassSyscall,
			Name:   name,
			Args:   args(),
			Ret:    ret,
			UID:    pc.cred.UID,
			GID:    pc.cred.GID,
			Span:   span,
			Parent: parent,
		}
		if enrich != nil {
			enrich(&rec)
		}
		pc.tp.Exit(p, &rec)
	}
	return ret
}

// Open opens path, returning a file descriptor.
func (pc *ProcCtx) Open(p *sim.Proc, path string, flags OpenFlag, mode int) (int, error) {
	var fd int
	var err error
	pc.syscall(p, "SYS_open",
		func() []string {
			return []string{strconv.Quote(path), fmt.Sprintf("%#x", int(flags)), fmt.Sprintf("%#o", mode)}
		},
		func() (string, func(*trace.Record)) {
			var fs Filesystem
			fs, err = pc.kernel.Resolve(path)
			if err != nil {
				return trace.Ret(err), nil
			}
			var f File
			f, err = fs.Open(p, path, flags, mode, pc.cred)
			if err != nil {
				return trace.Ret(err), nil
			}
			fd = pc.nextFD
			pc.nextFD++
			pc.fds = append(pc.fds, fdEntry{file: f, path: path, flags: flags})
			return strconv.Itoa(fd), func(r *trace.Record) { r.Path = path }
		})
	if err != nil {
		return -1, err
	}
	return fd, nil
}

func (pc *ProcCtx) fd(fd int) (*fdEntry, error) {
	i := fd - 3
	if i < 0 || i >= len(pc.fds) || pc.fds[i].file == nil {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return &pc.fds[i], nil
}

// PWrite writes length bytes at offset through fd.
func (pc *ProcCtx) PWrite(p *sim.Proc, fd int, offset, length int64) (int64, error) {
	var n int64
	var err error
	pc.syscall(p, "SYS_pwrite",
		func() []string {
			return []string{strconv.Itoa(fd), strconv.FormatInt(offset, 10), strconv.FormatInt(length, 10)}
		},
		func() (string, func(*trace.Record)) {
			var e *fdEntry
			e, err = pc.fd(fd)
			if err != nil {
				return trace.Ret(err), nil
			}
			if !e.flags.CanWrite() {
				err = ErrReadOnly
				return trace.Ret(err), nil
			}
			n, err = e.file.WriteAt(p, offset, length)
			if err != nil {
				return trace.Ret(err), nil
			}
			path := e.path
			return strconv.FormatInt(n, 10), func(r *trace.Record) {
				r.Path, r.Offset, r.Bytes = path, offset, n
			}
		})
	return n, err
}

// Write writes length bytes at the fd's current position, advancing it.
func (pc *ProcCtx) Write(p *sim.Proc, fd int, length int64) (int64, error) {
	var n int64
	var err error
	pc.syscall(p, "SYS_write",
		func() []string { return []string{strconv.Itoa(fd), strconv.FormatInt(length, 10)} },
		func() (string, func(*trace.Record)) {
			var e *fdEntry
			e, err = pc.fd(fd)
			if err != nil {
				return trace.Ret(err), nil
			}
			if !e.flags.CanWrite() {
				err = ErrReadOnly
				return trace.Ret(err), nil
			}
			off := e.pos
			n, err = e.file.WriteAt(p, off, length)
			if err != nil {
				return trace.Ret(err), nil
			}
			e.pos += n
			path := e.path
			return strconv.FormatInt(n, 10), func(r *trace.Record) {
				r.Path, r.Offset, r.Bytes = path, off, n
			}
		})
	return n, err
}

// PRead reads length bytes at offset through fd.
func (pc *ProcCtx) PRead(p *sim.Proc, fd int, offset, length int64) (int64, error) {
	var n int64
	var err error
	pc.syscall(p, "SYS_pread",
		func() []string {
			return []string{strconv.Itoa(fd), strconv.FormatInt(offset, 10), strconv.FormatInt(length, 10)}
		},
		func() (string, func(*trace.Record)) {
			var e *fdEntry
			e, err = pc.fd(fd)
			if err != nil {
				return trace.Ret(err), nil
			}
			if !e.flags.CanRead() {
				err = ErrWriteOnly
				return trace.Ret(err), nil
			}
			n, err = e.file.ReadAt(p, offset, length)
			if err != nil {
				return trace.Ret(err), nil
			}
			path := e.path
			return strconv.FormatInt(n, 10), func(r *trace.Record) {
				r.Path, r.Offset, r.Bytes = path, offset, n
			}
		})
	return n, err
}

// Read reads length bytes at the fd's position, advancing it.
func (pc *ProcCtx) Read(p *sim.Proc, fd int, length int64) (int64, error) {
	var n int64
	var err error
	pc.syscall(p, "SYS_read",
		func() []string { return []string{strconv.Itoa(fd), strconv.FormatInt(length, 10)} },
		func() (string, func(*trace.Record)) {
			var e *fdEntry
			e, err = pc.fd(fd)
			if err != nil {
				return trace.Ret(err), nil
			}
			if !e.flags.CanRead() {
				err = ErrWriteOnly
				return trace.Ret(err), nil
			}
			off := e.pos
			n, err = e.file.ReadAt(p, off, length)
			if err != nil {
				return trace.Ret(err), nil
			}
			e.pos += n
			path := e.path
			return strconv.FormatInt(n, 10), func(r *trace.Record) {
				r.Path, r.Offset, r.Bytes = path, off, n
			}
		})
	return n, err
}

// Close closes fd.
func (pc *ProcCtx) Close(p *sim.Proc, fd int) error {
	var err error
	pc.syscall(p, "SYS_close", func() []string { return []string{strconv.Itoa(fd)} },
		func() (string, func(*trace.Record)) {
			var e *fdEntry
			e, err = pc.fd(fd)
			if err != nil {
				return trace.Ret(err), nil
			}
			err = e.file.Close(p)
			e.file = nil // slot retired; fd numbers are never reused
			return trace.Ret(err), nil
		})
	return err
}

// Fsync flushes fd to stable storage.
func (pc *ProcCtx) Fsync(p *sim.Proc, fd int) error {
	var err error
	pc.syscall(p, "SYS_fsync", func() []string { return []string{strconv.Itoa(fd)} },
		func() (string, func(*trace.Record)) {
			var e *fdEntry
			e, err = pc.fd(fd)
			if err != nil {
				return trace.Ret(err), nil
			}
			err = e.file.Sync(p)
			return trace.Ret(err), nil
		})
	return err
}

// Stat returns file metadata.
func (pc *ProcCtx) Stat(p *sim.Proc, path string) (FileAttr, error) {
	var attr FileAttr
	var err error
	pc.syscall(p, "SYS_stat", func() []string { return []string{strconv.Quote(path)} },
		func() (string, func(*trace.Record)) {
			var fs Filesystem
			fs, err = pc.kernel.Resolve(path)
			if err != nil {
				return trace.Ret(err), nil
			}
			attr, err = fs.Stat(p, path)
			if err != nil {
				return trace.Ret(err), nil
			}
			return "0", func(r *trace.Record) { r.Path = path }
		})
	return attr, err
}

// Statfs returns file system information for the mount serving path.
func (pc *ProcCtx) Statfs(p *sim.Proc, path string) (StatfsInfo, error) {
	var info StatfsInfo
	var err error
	pc.syscall(p, "SYS_statfs64", func() []string { return []string{strconv.Quote(path), "84"} },
		func() (string, func(*trace.Record)) {
			var fs Filesystem
			fs, err = pc.kernel.Resolve(path)
			if err != nil {
				return trace.Ret(err), nil
			}
			info, err = fs.Statfs(p)
			return trace.Ret(err), func(r *trace.Record) { r.Path = path }
		})
	return info, err
}

// Unlink removes a file.
func (pc *ProcCtx) Unlink(p *sim.Proc, path string) error {
	var err error
	pc.syscall(p, "SYS_unlink", func() []string { return []string{strconv.Quote(path)} },
		func() (string, func(*trace.Record)) {
			var fs Filesystem
			fs, err = pc.kernel.Resolve(path)
			if err != nil {
				return trace.Ret(err), nil
			}
			err = fs.Unlink(p, path, pc.cred)
			return trace.Ret(err), func(r *trace.Record) { r.Path = path }
		})
	return err
}

// Fcntl models the descriptor-flag fiddling MPI stacks perform on startup
// (Figure 1 shows SYS_fcntl64 during MPI_File_open). It is a metadata no-op.
func (pc *ProcCtx) Fcntl(p *sim.Proc, fd, cmd, arg int) error {
	var err error
	pc.syscall(p, "SYS_fcntl64",
		func() []string { return []string{strconv.Itoa(fd), strconv.Itoa(cmd), strconv.Itoa(arg)} },
		func() (string, func(*trace.Record)) {
			_, err = pc.fd(fd)
			return trace.Ret(err), nil
		})
	return err
}

// MMapRegion is a memory mapping of a file range. Stores through the
// mapping bypass the syscall boundary entirely — strace-based tracers cannot
// see them (the paper: ltrace/strace "cannot track memory-mapped I/Os") —
// but the backing file system (where Tracefs stacks) observes the writeback.
type MMapRegion struct {
	pc     *ProcCtx
	file   File
	path   string
	offset int64
	length int64
}

// MMap maps length bytes of fd at offset.
func (pc *ProcCtx) MMap(p *sim.Proc, fd int, offset, length int64) (*MMapRegion, error) {
	var region *MMapRegion
	var err error
	pc.syscall(p, "SYS_mmap",
		func() []string {
			return []string{strconv.Itoa(fd), strconv.FormatInt(offset, 10), strconv.FormatInt(length, 10)}
		},
		func() (string, func(*trace.Record)) {
			var e *fdEntry
			e, err = pc.fd(fd)
			if err != nil {
				return trace.Ret(err), nil
			}
			region = &MMapRegion{pc: pc, file: e.file, path: e.path, offset: offset, length: length}
			path := e.path
			return "0x2aaaaaaab000", func(r *trace.Record) {
				r.Path, r.Offset, r.Bytes = path, offset, length
			}
		})
	return region, err
}

// Store writes length bytes at offset within the mapping. No syscall is
// issued: the write reaches the file system as page writeback.
func (m *MMapRegion) Store(p *sim.Proc, offset, length int64) error {
	if offset+length > m.length {
		return fmt.Errorf("vfs: store beyond mapping (%d+%d > %d)", offset, length, m.length)
	}
	_, err := m.file.WriteAt(p, m.offset+offset, length)
	return err
}

// SyscallNames lists the syscall surface, for documentation and for
// granularity-filter validation.
func SyscallNames() []string {
	return []string{
		"SYS_open", "SYS_close", "SYS_read", "SYS_write", "SYS_pread",
		"SYS_pwrite", "SYS_fsync", "SYS_stat", "SYS_statfs64", "SYS_unlink",
		"SYS_fcntl64", "SYS_mmap",
	}
}
