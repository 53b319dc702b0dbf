package pfs

import (
	"iotaxo/internal/disk"
	"iotaxo/internal/fnvhash"
	"iotaxo/internal/netsim"
	"iotaxo/internal/sim"
	"iotaxo/internal/trace"
)

// Wire protocol request/response types. Payloads travel by reference inside
// the simulator; Size fields on messages model the bytes on the wire.

type ioReq struct {
	Path   string
	Ranges []stripeRange // phys ranges on this server
	Write  bool
}

type ioResp struct {
	N   int64
	Err string
}

type truncReq struct{ Path string }

type metaReq struct {
	Op    string // "open", "stat", "unlink", "setsize"
	Path  string
	Flags int
	Size  int64
	UID   int
	GID   int
	Mode  int
}

type metaResp struct {
	Err  string
	Size int64
	UID  int
	GID  int
	Mode int
}

// objState is one server's view of one file's object.
type objState struct {
	maxEnd  int64  // highest logical byte written through this server
	digest  uint64 // XOR of logical-extent hashes
	writes  int64
	physEnd int64 // highest server-local byte (for reads)
}

// server is one object storage server: a node, a RAID group, and a pool of
// request handlers.
type server struct {
	sys   *System
	idx   int
	node  string
	array *disk.Array
	inbox *sim.Mailbox[netsim.Message]
	pool  *sim.Resource

	objects map[string]*objState

	// Stats.
	Requests int64
}

func newServer(sys *System, idx int) *server {
	node := sys.ServerNode(idx)
	sys.net.AddNode(node)
	return &server{
		sys:     sys,
		idx:     idx,
		node:    node,
		array:   disk.NewArray(sys.env, sys.cfg.Array, node, sys.tp),
		inbox:   sys.net.Listen(node, Port),
		pool:    sim.NewResource(sys.env, sys.cfg.ServerProcs),
		objects: make(map[string]*objState),
	}
}

// start arms the event-driven dispatch chain. The server runs with zero
// processes: requests are received by a re-arming GetThen on the inbox,
// admitted through the handler pool with AcquireThen, and handled as pure
// event chains — no goroutine is created per request.
//
// Ordering invariant: a request is admitted one event after it is received
// (the After(0) kickoff below), and admissions queue FIFO on the handler
// pool, so requests that arrive at one instant are served in arrival order
// and the simulated timestamps depend only on arrival order and pool size.
func (s *server) start() { s.armDispatch() }

// armDispatch registers the next-request callback. It re-arms from inside
// the callback, so a burst of messages already queued in the inbox is
// consumed within one wake, in queue order.
func (s *server) armDispatch() {
	s.inbox.GetThen(func(msg netsim.Message) {
		s.Requests++
		reqSpan := msg.Span
		req, respond := s.sys.net.ServeRequestThen(s.node, msg)
		s.sys.env.After(0, func() {
			s.pool.AcquireThen(func() {
				s.handleThen(req, reqSpan, respond, s.pool.Release)
			})
		})
		s.armDispatch()
	})
}

// handleThen services one request while holding a pool unit; done releases
// it once the response has fully left the server's NIC, so a pool unit
// covers the whole request including the response transfer.
func (s *server) handleThen(req any, parent uint64, respond func(int64, any, func()), done func()) {
	// Span allocation is unconditional (pure counter, schedule-neutral);
	// records are emitted only when the tracepoint is armed.
	span := s.sys.env.NextSpanID()
	start := s.sys.env.Now()
	switch r := req.(type) {
	case ioReq:
		s.handleIOThen(r, span, func(n int64, err error) {
			if s.sys.tp.Armed() {
				name := "PFS_read"
				if r.Write {
					name = "PFS_write"
				}
				var off int64
				if len(r.Ranges) > 0 {
					off = s.sys.logicalOffset(s.idx, r.Ranges[0].phys)
				}
				s.sys.tp.Exit(nil, &trace.Record{
					Time: start, Dur: s.sys.env.Now() - start,
					Node: s.node, Rank: -1,
					Class: trace.ClassPFSOp, Name: name, Ret: trace.Ret(err),
					Path: r.Path, Offset: off, Bytes: n,
					Span: span, Parent: parent,
				})
			}
			resp := ioResp{N: n}
			if err != nil {
				resp.Err = err.Error()
			}
			respSize := int64(reqHeader)
			if !r.Write {
				respSize += n // read data travels back
			}
			respond(respSize, resp, done)
		})
	case truncReq:
		delete(s.objects, r.Path)
		if s.sys.tp.Armed() {
			s.sys.tp.Exit(nil, &trace.Record{
				Time: start, Dur: 0, Node: s.node, Rank: -1,
				Class: trace.ClassPFSOp, Name: "PFS_trunc", Ret: "0",
				Path: r.Path, Span: span, Parent: parent,
			})
		}
		respond(reqHeader, ioResp{}, done)
	default:
		respond(reqHeader, ioResp{Err: "pfs: bad request"}, done)
	}
}

// handleIOThen runs the per-range transfers serially as an event chain, in
// request order: each range starts only when the previous one completes,
// digest state updates after each write completes, reads clamp against the
// object's physical end as it stands when the range is reached, and the
// first error aborts the remaining ranges.
func (s *server) handleIOThen(r ioReq, span uint64, done func(int64, error)) {
	st, ok := s.objects[r.Path]
	if !ok {
		st = &objState{}
		s.objects[r.Path] = st
	}
	base := objectBase(r.Path)
	var total int64
	var step func(i int)
	step = func(i int) {
		for ; i < len(r.Ranges); i++ {
			rg := r.Ranges[i]
			next := i + 1
			if r.Write {
				s.array.WriteThenSpan(base+rg.phys, rg.length, span, func(err error) {
					if err != nil {
						done(total, err)
						return
					}
					s.recordWrite(st, r.Path, rg)
					total += rg.length
					step(next)
				})
				return
			}
			length := rg.length
			if rg.phys >= st.physEnd {
				continue // hole / EOF on this server
			}
			if rg.phys+length > st.physEnd {
				length = st.physEnd - rg.phys
			}
			add := length
			s.array.ReadThenSpan(base+rg.phys, length, span, func(err error) {
				if err != nil {
					done(total, err)
					return
				}
				total += add
				step(next)
			})
			return
		}
		done(total, nil)
	}
	step(0)
}

// objectBase allocates each file its own extent on the array so distinct
// files do not false-share physical positions (and stripe rows).
func objectBase(path string) int64 {
	const extent = int64(1) << 36 // 64 GiB per object extent
	return int64(fnvhash.String(fnvhash.Offset64, path)%1024) * extent
}

// recordWrite updates digest state, decomposing the physical range into
// stripe-unit-aligned pieces whose logical offsets are reconstructed via the
// inverse striping map.
func (s *server) recordWrite(st *objState, path string, rg stripeRange) {
	su := s.sys.cfg.StripeUnit
	phys, length := rg.phys, rg.length
	for length > 0 {
		within := phys % su
		chunk := su - within
		if chunk > length {
			chunk = length
		}
		logOff := s.sys.logicalOffset(s.idx, phys)
		st.digest ^= extentHash(path, logOff, chunk)
		st.writes++
		if end := logOff + chunk; end > st.maxEnd {
			st.maxEnd = end
		}
		phys += chunk
		length -= chunk
	}
	if rg.phys+rg.length > st.physEnd {
		st.physEnd = rg.phys + rg.length
	}
}
